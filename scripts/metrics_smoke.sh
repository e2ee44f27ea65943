#!/bin/sh
# Observability smoke gate (CI; `make metrics-smoke`): boot a 2-worker
# cluster behind qfe-router, drive real sessions through the router, SIGKILL
# one worker, and then assert that GET /metrics on the router AND on the
# surviving worker exposes the series DESIGN.md §13 promises — with non-zero
# values where the run must have produced them:
#
#   worker:  qfe_engine_round_seconds_count     > 0  (round-phase histogram)
#            qfe_engine_dbgen_seconds_count     > 0  (+ alg4/skyline phases)
#            qfe_wal_fsync_seconds_count        > 0  (durability latency)
#            qfe_build_info / qfe_http_request_seconds present
#   router:  qfe_router_failovers_total         > 0  (the kill was detected)
#            qfe_router_proxied_total           > 0
#            qfe_router_proxy_seconds           per-worker histogram present
#            qfe_router_shed_total              present (counter exists)
#
# Usage: scripts/metrics_smoke.sh SERVER_BIN ROUTER_BIN
set -e

SERVER_BIN=${1:?usage: metrics_smoke.sh SERVER_BIN ROUTER_BIN}
ROUTER_BIN=${2:?usage: metrics_smoke.sh SERVER_BIN ROUTER_BIN}

DIR=$(mktemp -d /tmp/qfe-metrics-smoke.XXXXXX)
PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

fail() {
    echo "metrics_smoke: FAIL — $1" >&2
    exit 1
}

# wait_port LOGFILE: parse "listening on HOST:PORT" printed on stdout.
wait_addr() {
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/.*listening on \([0-9.:]*[0-9]\) .*/\1/p' "$1" | head -1)
        [ -n "$ADDR" ] && { echo "$ADDR"; return 0; }
        i=$((i + 1)); sleep 0.1
    done
    echo "metrics_smoke: no listening line in $1" >&2
    cat "$1" >&2
    return 1
}

# --- boot two workers -------------------------------------------------------

# start_worker N: boots worker N and sets W_ADDR / W_PID (globals — command
# substitution would run in a subshell and lose the pid).
start_worker() {
    n=$1
    mkdir -p "$DIR/n$n/wal"
    "$SERVER_BIN" -addr 127.0.0.1:0 -admin \
        -state "$DIR/n$n/state.json" -wal "$DIR/n$n/wal" \
        -checkpoint 500ms >"$DIR/n$n.log" 2>"$DIR/n$n.err" &
    W_PID=$!
    PIDS="$PIDS $W_PID"
    W_ADDR=$(wait_addr "$DIR/n$n.log")
}

start_worker 0; W0=$W_ADDR; W0_PID=$W_PID
start_worker 1; W1=$W_ADDR; W1_PID=$W_PID
echo "metrics_smoke: workers on $W0 (pid $W0_PID) and $W1 (pid $W1_PID)"

# --- boot the router --------------------------------------------------------

"$ROUTER_BIN" -addr 127.0.0.1:0 \
    -worker "id=w0,url=http://$W0,state=$DIR/n0/state.json,wal=$DIR/n0/wal" \
    -worker "id=w1,url=http://$W1,state=$DIR/n1/state.json,wal=$DIR/n1/wal" \
    -probe-interval 200ms -dead-after 2 -recover-after 1 \
    >"$DIR/router.log" 2>"$DIR/router.err" &
RT_PID=$!
PIDS="$PIDS $RT_PID"
RT=$(wait_addr "$DIR/router.log")
echo "metrics_smoke: router on $RT (pid $RT_PID)"

# --- drive sessions through the router --------------------------------------

for i in 1 2 3 4; do
    SID=$(curl -sS -X POST "http://$RT/sessions" \
        -d '{"dataset":"demo"}' | jq -r .id)
    [ -n "$SID" ] && [ "$SID" != null ] || fail "session create $i returned no id"
    curl -sS -X POST "http://$RT/sessions/$SID/feedback" \
        -d '{"choice":0,"seq":1}' >/dev/null
done
echo "metrics_smoke: drove 4 sessions with feedback"

# --- kill one worker, wait for the failover ---------------------------------

kill -9 "$W1_PID"
echo "metrics_smoke: SIGKILLed worker w1 (pid $W1_PID)"

metric() { # metric NAME URL -> value (0 when absent)
    curl -sS "http://$2/metrics" | awk -v n="$1" '$1 == n { print $2; found=1 } END { if (!found) print 0 }'
}

i=0
until [ "$(metric qfe_router_failovers_done_total "$RT")" -ge 1 ] 2>/dev/null; do
    i=$((i + 1))
    [ $i -gt 150 ] && fail "failover did not complete within 30s"
    sleep 0.2
done
echo "metrics_smoke: failover completed"

# --- assertions: router ------------------------------------------------------

ROUTER_METRICS=$(curl -sS "http://$RT/metrics")
echo "$ROUTER_METRICS" > "$DIR/router-metrics.txt"

require_series() { # require_series TEXT NAME WHO
    echo "$1" | grep -q "^$2" || fail "$3 /metrics is missing $2"
}
require_nonzero() { # require_nonzero TEXT NAME WHO
    v=$(echo "$1" | awk -v n="$2" '$1 == n { print $2 }')
    [ -n "$v" ] || fail "$3 /metrics is missing $2"
    [ "$v" != 0 ] || fail "$3 $2 is zero"
}

require_nonzero "$ROUTER_METRICS" qfe_router_proxied_total router
require_nonzero "$ROUTER_METRICS" qfe_router_failovers_total router
require_series  "$ROUTER_METRICS" qfe_router_shed_total router
require_series  "$ROUTER_METRICS" qfe_router_proxy_seconds_bucket router
require_series  "$ROUTER_METRICS" qfe_router_probe_transitions_total router
require_series  "$ROUTER_METRICS" qfe_build_info router
require_nonzero "$ROUTER_METRICS" 'qfe_http_request_seconds_count{route="/sessions"}' router

# --- assertions: surviving worker -------------------------------------------

WORKER_METRICS=$(curl -sS "http://$W0/metrics")
echo "$WORKER_METRICS" > "$DIR/worker-metrics.txt"

require_nonzero "$WORKER_METRICS" qfe_engine_round_seconds_count worker
require_nonzero "$WORKER_METRICS" qfe_engine_dbgen_seconds_count worker
require_nonzero "$WORKER_METRICS" qfe_engine_alg4_seconds_count worker
require_nonzero "$WORKER_METRICS" qfe_engine_skyline_seconds_count worker
require_nonzero "$WORKER_METRICS" qfe_wal_fsync_seconds_count worker
require_nonzero "$WORKER_METRICS" qfe_wal_records_total worker
require_series  "$WORKER_METRICS" qfe_build_info worker
require_series  "$WORKER_METRICS" qfe_sessions_resident worker
require_nonzero "$WORKER_METRICS" qfe_sessions_started_total worker

# JSON snapshot flavour parses.
curl -sS "http://$W0/metrics?format=json" | jq -e 'length > 0' >/dev/null \
    || fail "worker /metrics?format=json is not a JSON array"

echo "metrics_smoke: OK"
