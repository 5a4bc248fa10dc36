#!/bin/sh
# Self-healing scrub drill: a 3-replica replicated store where one
# node's disk silently corrupts what it writes, under live load.
#
#   - replica 2 runs with FOSM_FAULTS="store.corrupt=flip:0.15": 15%
#     of its store appends get one payload byte flipped AFTER the
#     CRC is computed — latent media corruption, invisible until
#     something re-reads the bytes.
#   - every replica scrubs continuously (--scrub-interval-s 1) and
#     re-verifies CRCs on reads (--store-verify-reads); findings are
#     quarantined and repaired from the replica ring.
#   - the loadgen pushes distinct design points through the gateway
#     the whole time.
#
# Pass criteria: the loadgen exits 0 with zero client-visible errors
# (corruption degrades to a miss + recompute, never an error), the
# faulted replica detects corruption (fosm_scrub_corrupt_found_total
# > 0) and heals it from its peers (fosm_repair_success_total > 0),
# and the gateway aggregates the scrub state in /v1/store/stats and
# fans out /admin/scrub.
# Usage: scripts/scrub_drill.sh [build-dir]
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
. "$repo/scripts/lib.sh"

base=${FOSM_SCRUB_PORT:-18830}
p1=$((base + 1)); p2=$((base + 2)); p3=$((base + 3))
gp=$base
backends="127.0.0.1:$p1,127.0.0.1:$p2,127.0.0.1:$p3"

start_scrub_replica() { # $1 = port (env may carry FOSM_FAULTS)
    start_replica "$1" --store-dir "$tmp/store-$1" \
        --self "127.0.0.1:$1" --peers "$backends" \
        --replication 2 --repl-interval 1000 \
        --scrub-interval-s 1 --scrub-mbps 64 \
        --store-verify-reads
}

node_metric() { # $1 = port, $2 = anchored grep pattern; prints sum
    curl -fsS "http://127.0.0.1:$1/metrics" \
        | grep "$2" | awk '{s += $NF} END {print int(s + 0)}'
}

echo "== booting scrubbing trio (:$p1 :$p3 clean, :$p2 flips bytes)"
start_scrub_replica "$p1"
export FOSM_FAULTS="store.corrupt=flip:0.15" FOSM_FAULT_SEED=7
start_scrub_replica "$p2"
unset FOSM_FAULTS FOSM_FAULT_SEED
start_scrub_replica "$p3"
wait_healthy "$p1" replica1
wait_healthy "$p2" replica2
wait_healthy "$p3" replica3

echo "== booting gateway on :$gp"
"$gateway" --port "$gp" --backends "$backends" \
    --health-interval 100 \
    > "$tmp/gateway.log" 2>&1 &
gw=$!
pids="$pids $gw"
wait_healthy "$gp" gateway

echo "== live load while replica 2 corrupts its own writes"
"$loadgen" --targets "127.0.0.1:$gp" --connections 4 \
    --warmup 0.5 --duration 10 --distinct 32 \
    --timeout 5000 --deadline 2000 \
    --out "$tmp/report.json" > "$tmp/loadgen.log" 2>&1 &
lg=$!
pids="$pids $lg"

if ! wait "$lg"; then
    echo "FAIL: loadgen reported client-visible errors" >&2
    cat "$tmp/loadgen.log" >&2
    exit 1
fi
cat "$tmp/loadgen.log"

count() { # $1 = report key (head -1: the aggregate counts)
    grep -o "\"$1\":[0-9]*" "$tmp/report.json" \
        | head -1 | cut -d: -f2
}
errors=$(count requests_error)
rejected=$(count requests_503)
expired=$(count requests_504)
timeouts=$(count requests_timeout)
if [ "$errors" != "0" ] || [ "$rejected" != "0" ] ||
   [ "$expired" != "0" ] || [ "$timeouts" != "0" ]; then
    echo "FAIL: client saw errors=$errors 503s=$rejected" \
         "504s=$expired timeouts=$timeouts" >&2
    exit 1
fi
echo "OK: zero client-visible errors while corruption was live"

# Force one synchronous full pass everywhere through the gateway
# fan-out, so detection doesn't depend on background timing.
code=$(curl -s -o "$tmp/scrub.json" -w '%{http_code}' \
    -X POST -d '{"wait":true}' "http://127.0.0.1:$gp/admin/scrub")
if [ "$code" != "200" ]; then
    echo "FAIL: POST /admin/scrub via gateway -> HTTP $code" >&2
    cat "$tmp/scrub.json" >&2
    exit 1
fi
reporting=$(grep -o '"backends_reporting":[0-9]*' "$tmp/scrub.json" \
    | cut -d: -f2)
if [ "$reporting" != "3" ]; then
    echo "FAIL: /admin/scrub fan-out reached $reporting/3" >&2
    cat "$tmp/scrub.json" >&2
    exit 1
fi
echo "OK: /admin/scrub fanned out to all 3 backends"

# The faulted node must have found its own latent corruption...
found=$(node_metric "$p2" '^fosm_scrub_corrupt_found_total')
if [ "$found" -lt 1 ]; then
    echo "FAIL: :$p2 scrub found $found corrupt records" \
         "(expected >= 1)" >&2
    cat "$tmp/serve-$p2.log" >&2
    exit 1
fi
echo "OK: scrub on :$p2 found $found corrupt record(s)"

# ... and healed at least one from the ring (peers hold clean
# copies: write-behind ships the in-memory value, not the disk's).
i=0
while :; do
    repaired=$(node_metric "$p2" '^fosm_repair_success_total')
    [ "$repaired" -ge 1 ] && break
    i=$((i + 1))
    if [ "$i" -ge 200 ]; then
        echo "FAIL: :$p2 never repaired a quarantined record" >&2
        curl -fsS "http://127.0.0.1:$p2/v1/store/stats" >&2 || true
        cat "$tmp/serve-$p2.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "OK: :$p2 repaired $repaired record(s) from its peers"

# Gateway aggregation: the cluster rollup must carry the scrub and
# repair state the operators alert on.
curl -fsS "http://127.0.0.1:$gp/v1/store/stats" > "$tmp/stats.json"
for field in scrub_corrupt_found repaired_records; do
    v=$(grep -o "\"$field\":[0-9.]*" "$tmp/stats.json" \
        | head -1 | cut -d: -f2 | cut -d. -f1)
    if [ -z "$v" ] || [ "$v" -lt 1 ]; then
        echo "FAIL: aggregated $field=${v:-missing} (expected >= 1)" >&2
        cat "$tmp/stats.json" >&2
        exit 1
    fi
done
echo "OK: gateway /v1/store/stats aggregates scrub + repair state"

echo "scrub drill: PASS"
