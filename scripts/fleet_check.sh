#!/usr/bin/env bash
# fleet_check.sh — prove the fleet-resilience invariants end to end:
#
#   1. Baseline: one daemon, one private cache dir, a 200-job skewed
#      trace replayed clean; its combined results digest is the truth
#      every later leg must reproduce byte for byte.
#   2. Fleet: three race-instrumented replicas sharing one
#      cache directory. The same trace replays across all three while
#      one replica is SIGKILLed mid-trace and then restarted on the
#      same port. Required: a clean replay, the baseline digest
#      reproduced exactly, zero duplicate stores across the fleet
#      (cross-process single-flight held, even through the kill), and
#      nonzero lease merges (the coordination actually fired).
#   3. Overload: one small replica (-max-jobs 4 -max-queue 2) hammered
#      by 16 players must shed with 429s, never fail a job, and keep
#      the p99 of accepted requests within 2x an uncontended run's.
#
# Usage: scripts/fleet_check.sh [jobs] [players]
#
# The mid-trace kill gate (retries observed) is only enforced when the
# replay was still running at kill time.
set -u

JOBS="${1:-200}"
PLAYERS="${2:-8}"
DIR="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill -9 "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

# Concurrency-contract gate before any replica boots: a daemon whose
# locks can leak or whose request chains drop their context would turn
# the fleet legs below into noise instead of a verdict.
echo "== concurrency lint =="
make lint-concurrency || { echo "FAIL: concurrency-contract lint failed" >&2; exit 1; }

go build -race -o "$DIR/additivityd" ./cmd/additivityd || exit 1
go build -o "$DIR/additivity-load" ./cmd/additivity-load || exit 1

# boot_daemon <name> <addr> <cache-dir> [extra flags...]: starts one
# replica, waits for its announced address, and appends its pid to
# PIDS. The bound address lands in $ADDR.
boot_daemon() {
    local name="$1" addr="$2" cache="$3"
    shift 3
    "$DIR/additivityd" -addr "$addr" -cache-dir "$cache" "$@" \
        >"$DIR/$name.out" 2>"$DIR/$name.err" &
    local pid=$!
    PIDS+=("$pid")
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/^listening on //p' "$DIR/$name.out" | head -1)
        [ -n "$ADDR" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: replica $name exited during startup" >&2
            cat "$DIR/$name.err" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "FAIL: replica $name never announced its address" >&2
        exit 1
    fi
    DAEMON_PID=$pid
}

# digest_of <load output file>: the combined results digest line.
digest_of() {
    sed -n 's/^results digest: //p' "$1" | head -1
}

# sum_stat <field> <load output file>: sums one numeric statsz counter
# across every replica's statsz line.
sum_stat() {
    grep -o "\"$1\":[0-9]*" "$2" | grep -o '[0-9]*$' \
        | awk '{s+=$1} END {print s+0}'
}

# ---- Leg 1: single-replica baseline ---------------------------------

echo "leg 1: single-replica baseline (${JOBS} jobs, ${PLAYERS} players)..."
boot_daemon baseline 127.0.0.1:0 "$DIR/cache-baseline"
BASE_PID=$DAEMON_PID
"$DIR/additivity-load" -url "http://$ADDR" \
    -gen skewed -jobs "$JOBS" -players "$PLAYERS" \
    -write-trace "$DIR/trace.json" -digest \
    >"$DIR/baseline.out" 2>"$DIR/baseline.err" || {
    echo "FAIL: baseline replay reported failed or aborted jobs" >&2
    cat "$DIR/baseline.out" "$DIR/baseline.err" >&2
    exit 1
}
BASE_DIGEST=$(digest_of "$DIR/baseline.out")
if [ -z "$BASE_DIGEST" ]; then
    echo "FAIL: baseline replay printed no results digest" >&2
    exit 1
fi
kill "$BASE_PID" 2>/dev/null
wait "$BASE_PID" 2>/dev/null
echo "baseline digest: $BASE_DIGEST"

# ---- Leg 2: three replicas, shared cache, SIGKILL + restart ---------

echo "leg 2: 3 replicas sharing one cache dir, SIGKILL + restart mid-trace..."
FLEET_CACHE="$DIR/cache-fleet"
boot_daemon r1 127.0.0.1:0 "$FLEET_CACHE"
R1_PID=$DAEMON_PID R1_ADDR=$ADDR
boot_daemon r2 127.0.0.1:0 "$FLEET_CACHE"
R2_ADDR=$ADDR
boot_daemon r3 127.0.0.1:0 "$FLEET_CACHE"
R3_ADDR=$ADDR

FLEET_PLAYERS=$((PLAYERS + PLAYERS / 2))
"$DIR/additivity-load" \
    -url "http://$R1_ADDR,http://$R2_ADDR,http://$R3_ADDR" \
    -trace "$DIR/trace.json" -players "$FLEET_PLAYERS" \
    -digest -out "$DIR/fleet.json" \
    >"$DIR/fleet.out" 2>"$DIR/fleet.err" &
LOAD_PID=$!

# SIGKILL replica 1 mid-trace: no drain, no lease release, no goodbye.
sleep 0.7
KILLED_MIDRUN=0
if kill -0 "$LOAD_PID" 2>/dev/null; then
    KILLED_MIDRUN=1
fi
kill -9 "$R1_PID" 2>/dev/null
wait "$R1_PID" 2>/dev/null
sleep 0.7
# Restart it on the same port, same shared cache dir: the fleet is
# whole again and the replay keeps balancing across all three.
boot_daemon r1-restarted "$R1_ADDR" "$FLEET_CACHE"

wait "$LOAD_PID"
LOAD_STATUS=$?
if [ "$LOAD_STATUS" -ne 0 ]; then
    echo "FAIL: fleet replay reported failed or aborted jobs (exit $LOAD_STATUS)" >&2
    cat "$DIR/fleet.out" "$DIR/fleet.err" >&2
    exit 1
fi
cat "$DIR/fleet.out"

FLEET_DIGEST=$(digest_of "$DIR/fleet.out")
if [ "$FLEET_DIGEST" != "$BASE_DIGEST" ]; then
    echo "FAIL: fleet digest $FLEET_DIGEST differs from baseline $BASE_DIGEST" >&2
    exit 1
fi
DUP_STORES=$(sum_stat duplicate_stores "$DIR/fleet.out")
LEASE_MERGES=$(sum_stat lease_merges "$DIR/fleet.out")
if [ "$DUP_STORES" -ne 0 ]; then
    echo "FAIL: fleet performed $DUP_STORES duplicate stores; cross-process single-flight leaked" >&2
    exit 1
fi
if [ "$LEASE_MERGES" -eq 0 ]; then
    echo "FAIL: fleet recorded zero lease merges; cross-process coordination never fired" >&2
    exit 1
fi
RETRIES=$(grep -o '"retries": *[0-9]*' "$DIR/fleet.json" | grep -o '[0-9]*$')
if [ "$KILLED_MIDRUN" = "1" ] && [ "${RETRIES:-0}" -eq 0 ]; then
    echo "FAIL: replica was killed mid-trace but the replay recorded no retries" >&2
    exit 1
fi
for err in r1.err r2.err r3.err r1-restarted.err; do
    if grep -q 'DATA RACE' "$DIR/$err" 2>/dev/null; then
        echo "FAIL: race detector fired in $err" >&2
        cat "$DIR/$err" >&2
        exit 1
    fi
done
echo "fleet leg: digest matches baseline, $LEASE_MERGES lease merges, 0 duplicate stores, ${RETRIES:-0} retries (killed mid-run: $KILLED_MIDRUN)"

# ---- Leg 3: overload control ----------------------------------------

echo "leg 3: overload (4 workers, queue 2, $((2 * PLAYERS)) players)..."
# Uncontended reference: same worker count, an effectively unbounded
# queue, and the configured player count on a cold cache.
boot_daemon calm 127.0.0.1:0 "$DIR/cache-calm" -max-jobs 4
CALM_PID=$DAEMON_PID
"$DIR/additivity-load" -url "http://$ADDR" \
    -trace "$DIR/trace.json" -players "$PLAYERS" -out "$DIR/calm.json" \
    >"$DIR/calm.out" 2>/dev/null || {
    echo "FAIL: uncontended overload reference replay failed" >&2
    cat "$DIR/calm.out" >&2
    exit 1
}
kill "$CALM_PID" 2>/dev/null
wait "$CALM_PID" 2>/dev/null

boot_daemon hot 127.0.0.1:0 "$DIR/cache-hot" -max-jobs 4 -max-queue 2
"$DIR/additivity-load" -url "http://$ADDR" \
    -trace "$DIR/trace.json" -players "$((2 * PLAYERS))" -out "$DIR/hot.json" \
    >"$DIR/hot.out" 2>/dev/null || {
    echo "FAIL: overloaded replay reported failed or aborted jobs (sheds must be retried, not failed)" >&2
    cat "$DIR/hot.out" >&2
    exit 1
}
cat "$DIR/hot.out"

SHED=$(grep -o '"shed": *[0-9]*' "$DIR/hot.json" | grep -o '[0-9]*$')
if [ "${SHED:-0}" -eq 0 ]; then
    echo "FAIL: overload leg shed nothing; admission control never engaged" >&2
    exit 1
fi
CALM_P99=$(grep -o '"p99_ms": *[0-9.]*' "$DIR/calm.json" | head -1 | grep -o '[0-9.]*$')
HOT_P99=$(grep -o '"p99_ms": *[0-9.]*' "$DIR/hot.json" | head -1 | grep -o '[0-9.]*$')
if [ -z "$CALM_P99" ] || [ -z "$HOT_P99" ]; then
    echo "FAIL: could not extract p99 latencies" >&2
    exit 1
fi
if ! awk -v h="$HOT_P99" -v c="$CALM_P99" 'BEGIN{exit !(h <= 2*c)}'; then
    echo "FAIL: overloaded p99 ${HOT_P99}ms exceeds 2x the uncontended ${CALM_P99}ms — shedding is not protecting accepted requests" >&2
    exit 1
fi
echo "overload leg: $SHED sheds, p99 ${HOT_P99}ms vs uncontended ${CALM_P99}ms"

echo "PASS: fleet of 3 survived a SIGKILL with byte-identical results ($LEASE_MERGES lease merges, 0 duplicate stores); overload shed $SHED requests with accepted-p99 ${HOT_P99}ms"
