#!/usr/bin/env bash
# peer_check.sh — prove the peer cache protocol end to end:
#
#   1. Baseline: one daemon over a private cache dir replays a 200-job
#      skewed trace clean and records its combined results digest — the
#      truth every later leg must reproduce byte for byte. The daemon
#      is then stopped; its cache directory stays behind, warm.
#   2. Peer fleet: three race-instrumented replicas with
#      SEPARATE cache directories, wired to each other with -peers.
#      Replica A is rebooted over the warm baseline directory; B and C
#      start cold and can reach the entries only over the peer wire.
#      The same trace replays across all three (least-loaded balancing)
#      while C is SIGKILLed mid-trace. Required: a clean replay, the
#      baseline digest reproduced exactly, nonzero peer hits (the wire
#      actually served entries), and zero cache misses on the warm
#      replica A — peers must never push a duplicate measurement onto
#      a replica that already has the bytes.
#
# Usage: scripts/peer_check.sh [jobs] [players]
#
# The mid-trace kill gate is only enforced when the replay was still
# running at kill time.
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

# Concurrency-contract gate before any replica boots: the peer legs
# prove wire-level invariants, which mean nothing if a replica can
# deadlock on a leaked lock or block while holding a serving mutex.
echo "== concurrency lint =="
make lint-concurrency || { echo "FAIL: concurrency-contract lint failed" >&2; exit 1; }

go build -race -o "$DIR/additivityd" ./cmd/additivityd || exit 1
go build -o "$DIR/additivity-load" ./cmd/additivity-load || exit 1

# boot_daemon <name> <addr> <cache-dir> [extra flags...]: starts one
# replica, waits for its announced address, and appends its pid to
# PIDS. The bound address lands in $ADDR, the pid in $DAEMON_PID.
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
# across every replica's statsz line. The quoted field anchor keeps
# e.g. "misses" from also matching "peer_misses".
sum_stat() {
    grep -o "\"$1\":[0-9]*" "$2" | grep -o '[0-9]*$' \
        | awk '{s+=$1} END {print s+0}'
}

# stat_of <replica addr> <field> <load output file>: one replica's
# statsz counter.
stat_of() {
    grep "server statsz http://$1:" "$3" | grep -o "\"$2\":[0-9]*" \
        | head -1 | grep -o '[0-9]*$'
}

# ---- Leg 1: single-replica baseline, warming A's directory ----------

echo "leg 1: single-replica baseline (${JOBS} jobs, ${PLAYERS} players)..."
A_CACHE="$DIR/cache-a"
boot_daemon baseline 127.0.0.1:0 "$A_CACHE"
BASE_PID=$DAEMON_PID A_ADDR=$ADDR
"$DIR/additivity-load" -url "http://$A_ADDR" \
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

# ---- Leg 2: peer-wired fleet, separate dirs, SIGKILL mid-trace ------

echo "leg 2: peer fleet (separate cache dirs, C SIGKILLed mid-trace)..."
# B and C start cold, pointed at A's known address; A reboots last on
# that same address over its warm directory, pointed back at B and C.
boot_daemon b 127.0.0.1:0 "$DIR/cache-b" -peers "http://$A_ADDR"
B_ADDR=$ADDR
boot_daemon c 127.0.0.1:0 "$DIR/cache-c" -peers "http://$A_ADDR,http://$B_ADDR"
C_PID=$DAEMON_PID C_ADDR=$ADDR
boot_daemon a "$A_ADDR" "$A_CACHE" -peers "http://$B_ADDR,http://$C_ADDR"

FLEET_PLAYERS=$((PLAYERS + PLAYERS / 2))
"$DIR/additivity-load" \
    -url "http://$A_ADDR,http://$B_ADDR,http://$C_ADDR" \
    -trace "$DIR/trace.json" -players "$FLEET_PLAYERS" \
    -digest -out "$DIR/peerfleet.json" \
    >"$DIR/peerfleet.out" 2>"$DIR/peerfleet.err" &
LOAD_PID=$!

# SIGKILL replica C mid-trace: no drain, no goodbye; the balancer and
# the retry loop must absorb it, and A/B's breakers contain the dead
# peer without stalling their own fetches. The delay is short because
# a peer-warm fleet drains the trace fast — the kill must land while
# jobs are still in flight.
sleep 0.1
KILLED_MIDRUN=0
if kill -0 "$LOAD_PID" 2>/dev/null; then
    KILLED_MIDRUN=1
fi
kill -9 "$C_PID" 2>/dev/null
wait "$C_PID" 2>/dev/null

wait "$LOAD_PID"
LOAD_STATUS=$?
if [ "$LOAD_STATUS" -ne 0 ]; then
    echo "FAIL: peer-fleet replay reported failed or aborted jobs (exit $LOAD_STATUS)" >&2
    cat "$DIR/peerfleet.out" "$DIR/peerfleet.err" >&2
    exit 1
fi
cat "$DIR/peerfleet.out"

PEER_DIGEST=$(digest_of "$DIR/peerfleet.out")
if [ "$PEER_DIGEST" != "$BASE_DIGEST" ]; then
    echo "FAIL: peer-fleet digest $PEER_DIGEST differs from baseline $BASE_DIGEST" >&2
    exit 1
fi
PEER_HITS=$(sum_stat peer_hits "$DIR/peerfleet.out")
if [ "$PEER_HITS" -eq 0 ]; then
    echo "FAIL: peer fleet recorded zero peer hits; the peer wire never served an entry" >&2
    exit 1
fi
A_MISSES=$(stat_of "$A_ADDR" misses "$DIR/peerfleet.out")
if [ -z "$A_MISSES" ]; then
    echo "FAIL: could not read warm replica A's statsz misses" >&2
    exit 1
fi
if [ "$A_MISSES" -ne 0 ]; then
    echo "FAIL: warm replica A recorded $A_MISSES cache misses; it re-measured entries it already had" >&2
    exit 1
fi
RETRIES=$(grep -o '"retries": *[0-9]*' "$DIR/peerfleet.json" | grep -o '[0-9]*$')
if [ "$KILLED_MIDRUN" = "1" ] && [ "${RETRIES:-0}" -eq 0 ]; then
    echo "FAIL: replica C was killed mid-trace but the replay recorded no retries" >&2
    exit 1
fi
for err in a.err b.err c.err; do
    if grep -q 'DATA RACE' "$DIR/$err" 2>/dev/null; then
        echo "FAIL: race detector fired in $err" >&2
        cat "$DIR/$err" >&2
        exit 1
    fi
done
echo "peer leg: digest matches baseline, $PEER_HITS peer hits, A misses 0, ${RETRIES:-0} retries (killed mid-run: $KILLED_MIDRUN)"

echo "PASS: peer fleet reproduced the baseline digest byte for byte with $PEER_HITS peer hits, zero misses on the warm replica, and a mid-trace SIGKILL absorbed"
