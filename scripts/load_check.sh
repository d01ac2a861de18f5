#!/usr/bin/env bash
# load_check.sh — boot additivityd (built with -race), replay a short
# skewed trace against it with additivity-load (cold, then warm), and
# require a clean run: zero failed or aborted jobs, the skewed trace's
# duplicates served from the daemon's shared cache (memory hits or
# single-flight merges, never recomputed — the warm replay must add no
# cache misses), and the hot-path allocation budgets. Throughput is
# not gated here: cmd/additivity-bench measures it.
#
# Usage: scripts/load_check.sh [jobs] [players]
set -u

JOBS="${1:-200}"
PLAYERS="${2:-8}"
DIR="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
    rm -rf "$DIR"
}
trap cleanup EXIT

# The daemon runs under the race detector: the load replay doubles as
# a concurrency test of the whole service surface.
go build -race -o "$DIR/additivityd" ./cmd/additivityd || exit 1
go build -o "$DIR/additivity-load" ./cmd/additivity-load || exit 1

# Allocation-regression gate for the serving hot paths. These tests
# need real allocation counts, so they run without the race detector
# (under -race they skip themselves); the same paths are then exercised
# for correctness by the race-instrumented replay below.
echo "checking hot-path allocation budgets..."
go test -count=1 -run 'TestWarmLookupZeroAllocs|TestPlannedGatherAllocatesLessThanUnplanned' \
    ./internal/service ./internal/core || {
    echo "FAIL: hot-path allocation budget regressed" >&2
    exit 1
}

echo "booting additivityd (race-instrumented) on an ephemeral port..."
"$DIR/additivityd" -addr 127.0.0.1:0 -max-jobs "$PLAYERS" \
    >"$DIR/daemon.out" 2>"$DIR/daemon.err" &
DAEMON_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$DIR/daemon.out" | head -1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "FAIL: daemon exited during startup" >&2
        cat "$DIR/daemon.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: daemon never announced its address" >&2
    cat "$DIR/daemon.err" >&2
    exit 1
fi
echo "daemon listening on $ADDR"

echo "replaying a ${JOBS}-job skewed trace with ${PLAYERS} players..."
"$DIR/additivity-load" -url "http://$ADDR" \
    -gen skewed -jobs "$JOBS" -players "$PLAYERS" \
    >"$DIR/load.out" 2>"$DIR/load.err" || {
    echo "FAIL: load replay reported failed or aborted jobs" >&2
    cat "$DIR/load.out" "$DIR/load.err" >&2
    exit 1
}
cat "$DIR/load.out"

# Dedup invariant, cold leg: the skewed trace's duplicates must be
# served from the cache (memory hits or single-flight merges onto an
# in-flight twin), never recomputed. Merges alone are timing-dependent
# — the faster the hot path, the narrower the overlap window — so the
# gate checks hits+merges and, below, that the warm replay adds zero
# misses (no unit is ever computed twice).
MERGES=$(grep -o '"single_flight_merges":[0-9]*' "$DIR/load.out" \
    | head -1 | grep -o '[0-9]*$')
HITS=$(grep -o '"hits":[0-9]*' "$DIR/load.out" | head -1 | grep -o '[0-9]*$')
COLD_MISSES=$(grep -o '"misses":[0-9]*' "$DIR/load.out" | head -1 | grep -o '[0-9]*$')
if [ -z "$MERGES" ] || [ -z "$HITS" ] || [ "$((HITS + MERGES))" -eq 0 ]; then
    echo "FAIL: skewed replay served no duplicates from the cache" >&2
    exit 1
fi

# Replay the same trace once more against the now-warm daemon: every
# job settles on the job-level cache's fast path.
echo "replaying again against the warm daemon..."
"$DIR/additivity-load" -url "http://$ADDR" \
    -gen skewed -jobs "$JOBS" -players "$PLAYERS" \
    >"$DIR/warm.out" 2>/dev/null || {
    echo "FAIL: warm replay reported failed or aborted jobs" >&2
    cat "$DIR/warm.out" >&2
    exit 1
}
cat "$DIR/warm.out"

# Dedup invariant, warm leg: replaying the identical trace must add no
# cache misses — every job is served from the cache, nothing recomputes.
WARM_MISSES=$(grep -o '"misses":[0-9]*' "$DIR/warm.out" | head -1 | grep -o '[0-9]*$')
if [ -n "$COLD_MISSES" ] && [ -n "$WARM_MISSES" ] \
    && [ "$WARM_MISSES" -ne "$COLD_MISSES" ]; then
    echo "FAIL: warm replay recomputed cached units (misses ${COLD_MISSES} -> ${WARM_MISSES})" >&2
    exit 1
fi

# SIGTERM must drain cleanly: exit 0 with no jobs failed or aborted.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
STATUS=$?
DAEMON_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: daemon exited $STATUS after SIGTERM" >&2
    cat "$DIR/daemon.err" >&2
    exit 1
fi
if ! grep -q 'drained:.*0 failed, 0 aborted' "$DIR/daemon.err"; then
    echo "FAIL: drain log reports failed or aborted jobs" >&2
    cat "$DIR/daemon.err" >&2
    exit 1
fi
if grep -q 'DATA RACE' "$DIR/daemon.err"; then
    echo "FAIL: race detector fired in the daemon" >&2
    cat "$DIR/daemon.err" >&2
    exit 1
fi

echo "PASS: ${JOBS} jobs replayed clean ($((HITS + MERGES)) duplicates served from cache, ${MERGES} single-flight merges) with a clean drain"
