#!/bin/sh
# Cluster smoke test: boot 3 fosm-serve replicas and a fosm-gateway,
# drive cached load through the gateway, kill one replica mid-load,
# bring it back, and assert
#   (1) the client saw zero errors and zero 503s — the gateway's
#       retries and hedges absorbed the failure, and
#   (2) the gateway ejected the dead replica and reinstated it after
#       recovery (fosm_gateway_backend_ejections_total and
#       ..._reinstatements_total both advanced).
# Usage: scripts/cluster_smoke.sh [build-dir]
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
. "$repo/scripts/lib.sh"

base=${FOSM_SMOKE_PORT:-18780}
p1=$((base + 1)); p2=$((base + 2)); p3=$((base + 3))
gp=$base
backends="127.0.0.1:$p1,127.0.0.1:$p2,127.0.0.1:$p3"

echo "== booting 3 replicas on :$p1 :$p2 :$p3"
start_replica "$p1" --no-store
start_replica "$p2" --no-store; r2=$!
start_replica "$p3" --no-store
wait_healthy "$p1" replica1
wait_healthy "$p2" replica2
wait_healthy "$p3" replica3

echo "== booting gateway on :$gp"
# Short health interval + eager hedging so ejection, reinstatement
# and hedges all happen inside the test window.
"$gateway" --port "$gp" --backends "$backends" \
    --health-interval 100 --hedge-min-samples 50 \
    > "$tmp/gateway.log" 2>&1 &
gw=$!
pids="$pids $gw"
wait_healthy "$gp" gateway

echo "== load through the gateway; killing replica 2 mid-load"
"$loadgen" --targets "127.0.0.1:$gp" --connections 4 \
    --warmup 0.5 --duration 8 --distinct 24 \
    --out "$tmp/report.json" > "$tmp/loadgen.log" 2>&1 &
lg=$!
pids="$pids $lg"

sleep 2
kill "$r2"
wait "$r2" 2>/dev/null || true
echo "   replica 2 (:$p2) killed"

sleep 3
start_replica "$p2" --no-store
echo "   replica 2 (:$p2) restarted"

if ! wait "$lg"; then
    echo "FAIL: loadgen reported client-visible errors" >&2
    cat "$tmp/loadgen.log" >&2
    exit 1
fi
cat "$tmp/loadgen.log"

# head -1: the aggregate count (per-target rows repeat the keys).
errors=$(grep -o '"requests_error":[0-9]*' "$tmp/report.json" \
    | head -1 | cut -d: -f2)
rejected=$(grep -o '"requests_503":[0-9]*' "$tmp/report.json" \
    | head -1 | cut -d: -f2)
if [ "$errors" != "0" ] || [ "$rejected" != "0" ]; then
    echo "FAIL: client saw $errors errors, $rejected 503s" >&2
    exit 1
fi
echo "OK: zero client-visible errors across the replica kill"

# The dead replica must have been ejected and, after its restart,
# reinstated by the health checker.
wait_healthy "$p2" replica2-restarted
i=0
while :; do
    metrics=$(curl -fsS "http://127.0.0.1:$gp/metrics")
    ej=$(printf '%s\n' "$metrics" \
        | grep '^fosm_gateway_backend_ejections_total' \
        | awk '{s += $NF} END {print s + 0}')
    re=$(printf '%s\n' "$metrics" \
        | grep '^fosm_gateway_backend_reinstatements_total' \
        | awk '{s += $NF} END {print s + 0}')
    if [ "$ej" -ge 1 ] && [ "$re" -ge 1 ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "FAIL: ejections=$ej reinstatements=$re" \
             "(expected both >= 1)" >&2
        exit 1
    fi
    sleep 0.1
done
echo "OK: replica ejected ($ej) and reinstated ($re)"

hedges=$(printf '%s\n' "$metrics" \
    | grep '^fosm_gateway_hedges_total' \
    | awk '{s += $NF} END {print s + 0}')
retries=$(printf '%s\n' "$metrics" \
    | grep '^fosm_gateway_retries_total' \
    | awk '{s += $NF} END {print s + 0}')
echo "OK: gateway absorbed the failure" \
     "(retries=$retries hedges=$hedges)"
echo "cluster smoke: PASS"
