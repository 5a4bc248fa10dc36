#!/bin/sh
# Chaos smoke test: a 3-replica cluster under deterministic fault
# injection, deadline-carrying load, live membership changes and a
# SIGKILL — asserting the client never notices.
#
#   - replica 3 runs with FOSM_FAULTS="serve.handler=delay:1.0:400":
#     it accepts connections and answers /healthz (under the probe
#     timeout), but every real request outlives the gateway's 250ms
#     attempt budget — the failure mode only the circuit breaker can
#     see. The breaker must open.
#   - replica 3 is then drained live (POST /admin/backends), killed
#     with SIGKILL, restarted clean, and re-joined live; its breaker
#     must read closed again.
#   - replica 2 is SIGKILLed mid-load and restarted; the prober path
#     absorbs that one.
#   - the loadgen sends X-Fosm-Deadline-Ms with every request.
#
# Pass criteria: loadgen exits 0 with zero errors / 503s / 504s /
# timeouts, p99 stays bounded, and the gateway's breaker + deadline
# metric families are live.
#
# A second stage drills the replicated store (docs/REPLICATION.md):
# three store-backed replicas with --replication 2, the loadgen in
# --drill kill-rejoin mode, a SIGKILL of one replica at the first
# mark and a same-port rejoin at the second. Pass criteria: zero
# failures in every drill phase, post-failover p99 inside the
# pre-kill envelope (the successor already holds the shard's
# replicated entries, so failover lands warm), and a non-zero
# fosm_repl_catchup_entries_total on the rejoined node (it pulled
# the entries it missed while dead). Set FOSM_DRILL_OUT to pin the
# drill report (BENCH_PR8.json is such a pin).
# Usage: scripts/chaos_smoke.sh [build-dir]
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
. "$repo/scripts/lib.sh"

base=${FOSM_CHAOS_PORT:-18790}
p1=$((base + 1)); p2=$((base + 2)); p3=$((base + 3))
gp=$base
backends="127.0.0.1:$p1,127.0.0.1:$p2,127.0.0.1:$p3"

gateway_metric() { # $1 = anchored grep pattern; prints the sum
    curl -fsS "http://127.0.0.1:$gp/metrics" \
        | grep "$1" | awk '{s += $NF} END {print s + 0}'
}

admin() { # $1 = JSON body; expects HTTP 200
    code=$(curl -s -o "$tmp/admin.json" -w '%{http_code}' \
        -X POST -d "$1" "http://127.0.0.1:$gp/admin/backends")
    if [ "$code" != "200" ]; then
        echo "FAIL: POST /admin/backends $1 -> HTTP $code" >&2
        cat "$tmp/admin.json" >&2
        exit 1
    fi
}

echo "== booting replicas (:$p1 :$p2 fast, :$p3 injected-slow)"
start_replica "$p1" --no-store
start_replica "$p2" --no-store; r2=$!
# :$p3 answers /healthz fine but delays all work 400ms. Extra workers
# so /healthz never queues behind the delayed requests: the replica
# must look alive to the prober while every live request blows the
# gateway's attempt budget — the failure mode only the circuit
# breaker can see.
export FOSM_FAULTS="serve.handler=delay:1.0:400" FOSM_FAULT_SEED=42
start_replica "$p3" --no-store --cache 0 --workers 8; r3=$!
unset FOSM_FAULTS FOSM_FAULT_SEED
wait_healthy "$p1" replica1
wait_healthy "$p2" replica2
wait_healthy "$p3" replica3

echo "== booting gateway on :$gp (250ms attempts, eager breaker)"
"$gateway" --port "$gp" --backends "$backends" \
    --health-interval 100 --request-timeout 250 \
    --breaker-failures 3 --breaker-open-base 500 \
    --breaker-open-max 4000 \
    > "$tmp/gateway.log" 2>&1 &
gw=$!
pids="$pids $gw"
wait_healthy "$gp" gateway

echo "== deadline-carrying load; chaos drills run underneath"
"$loadgen" --targets "127.0.0.1:$gp" --connections 4 \
    --warmup 0.5 --duration 14 --distinct 24 \
    --timeout 5000 --deadline 2000 \
    --out "$tmp/report.json" > "$tmp/loadgen.log" 2>&1 &
lg=$!
pids="$pids $lg"

# The slow replica times out live traffic: the breaker must open.
i=0
while :; do
    opens=$(gateway_metric \
        "^fosm_gateway_breaker_opens_total{backend=\"127.0.0.1:$p3\"}")
    [ "$opens" -ge 1 ] && break
    i=$((i + 1))
    if [ "$i" -ge 80 ]; then
        echo "FAIL: breaker never opened for :$p3" >&2
        cat "$tmp/gateway.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "OK: breaker opened for the injected-slow replica ($opens)"

echo "== draining :$p3 live, SIGKILL, clean restart, live re-join"
admin "{\"remove\":[\"127.0.0.1:$p3\"]}"
kill -9 "$r3"
wait "$r3" 2>/dev/null || true
start_replica "$p3" --no-store # no faults this time
wait_healthy "$p3" replica3-restarted
admin "{\"add\":[\"127.0.0.1:$p3\"]}"

echo "== SIGKILL replica 2 mid-load, then restart it"
kill -9 "$r2"
wait "$r2" 2>/dev/null || true
sleep 2
start_replica "$p2" --no-store
wait_healthy "$p2" replica2-restarted

if ! wait "$lg"; then
    echo "FAIL: loadgen reported client-visible errors" >&2
    cat "$tmp/loadgen.log" >&2
    exit 1
fi
cat "$tmp/loadgen.log"

# head -1: the aggregate counts (per-target rows repeat the keys).
count() { # $1 = report key
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
echo "OK: zero client-visible errors across every drill"

# Bounded tail: even requests homed on the slow/killed replicas must
# fail over inside the 250ms attempt budget, far under this bound.
p99=$(grep -o '"p99_us":[0-9.]*' "$tmp/report.json" \
    | head -1 | cut -d: -f2 | cut -d. -f1)
if [ "$p99" -ge 1500000 ]; then
    echo "FAIL: p99 ${p99}us exceeds 1.5s" >&2
    exit 1
fi
echo "OK: p99 bounded (${p99}us)"

# Breaker observability: the re-joined replica reads closed again,
# the deadline family is live, and both drills were counted.
state=$(gateway_metric \
    "^fosm_gateway_breaker_state{backend=\"127.0.0.1:$p3\"}")
if [ "$state" != "0" ]; then
    echo "FAIL: breaker for rejoined :$p3 reads $state" \
         "(expected closed=0)" >&2
    exit 1
fi
curl -fsS "http://127.0.0.1:$gp/metrics" > "$tmp/metrics.txt"
if ! grep -q '^fosm_deadline_exceeded_total' "$tmp/metrics.txt"; then
    echo "FAIL: fosm_deadline_exceeded_total missing" >&2
    exit 1
fi
changes=$(gateway_metric "^fosm_gateway_membership_changes_total")
if [ "$changes" -lt 2 ]; then
    echo "FAIL: membership_changes=$changes (expected >= 2)" >&2
    exit 1
fi
echo "OK: breaker closed after rejoin, deadline metrics live," \
     "$changes membership changes"

# ---- Stage 2: replicated-store kill + rejoin warmness drill ------

q1=$((base + 4)); q2=$((base + 5)); q3=$((base + 6))
gq=$((base + 7))
rbackends="127.0.0.1:$q1,127.0.0.1:$q2,127.0.0.1:$q3"

start_store_replica() { # $1 = port
    start_replica "$1" --store-dir "$tmp/store-$1" \
        --self "127.0.0.1:$1" --peers "$rbackends" \
        --replication 2 --repl-interval 1000
}

echo "== stage 2: replicated store trio (:$q1 :$q2 :$q3, N=2)"
start_store_replica "$q1"
start_store_replica "$q2"; s2=$!
start_store_replica "$q3"
wait_healthy "$q1" store-replica1
wait_healthy "$q2" store-replica2
wait_healthy "$q3" store-replica3

"$gateway" --port "$gq" --backends "$rbackends" \
    --health-interval 100 --request-timeout 250 \
    > "$tmp/gateway-repl.log" 2>&1 &
gw2=$!
pids="$pids $gw2"
wait_healthy "$gq" gateway-repl

echo "== kill-rejoin drill: SIGKILL the owner at 4s, rejoin at 8s"
"$loadgen" --targets "127.0.0.1:$gq" --connections 4 \
    --warmup 1 --duration 12 --distinct 24 \
    --timeout 5000 --deadline 2000 \
    --drill kill-rejoin --marks 4,8 \
    --out "$tmp/drill.json" > "$tmp/drill.log" 2>&1 &
dg=$!
pids="$pids $dg"

sleep 5 # warmup (1s) + first mark (4s): pre-kill phase complete
kill -9 "$s2"
wait "$s2" 2>/dev/null || true
echo "   SIGKILLed :$q2; every key it owned is warm on its successor"

# While the owner is down, push fresh design points through the
# gateway. Their failover owners commit and replicate them, and the
# dead node is on roughly a third of their preference lists — the
# backlog its rejoin catch-up must pull.
i=0
while [ "$i" -lt 30 ]; do
    curl -fsS -X POST \
        -d "{\"workload\":\"gcc\",\"machine\":{\"deltaD\":$((90000 + i))}}" \
        "http://127.0.0.1:$gq/v1/cpi" > /dev/null 2>&1 || true
    i=$((i + 1))
done

sleep 2 # until the second mark
start_store_replica "$q2" # same port + store
wait_healthy "$q2" store-replica2-rejoined

if ! wait "$dg"; then
    echo "FAIL: drill loadgen reported client-visible errors" >&2
    cat "$tmp/drill.log" >&2
    exit 1
fi
cat "$tmp/drill.log"

phase_field() { # $1 = phase name, $2 = "failures" | "p99"
    if [ "$2" = "failures" ]; then
        grep "^  $1 " "$tmp/drill.log" \
            | sed 's/.* \([0-9][0-9]*\) failures.*/\1/'
    else
        grep "^  $1 " "$tmp/drill.log" \
            | sed 's/.*p99 \([0-9.][0-9.]*\) us.*/\1/' \
            | cut -d. -f1
    fi
}
for phase in pre-kill post-failover post-rejoin; do
    f=$(phase_field "$phase" failures)
    if [ -z "$f" ] || [ "$f" != "0" ]; then
        echo "FAIL: drill phase $phase saw ${f:-?} failures" >&2
        exit 1
    fi
done
echo "OK: zero client-visible failures in every drill phase"

# Warm-failover envelope: the successor serves the dead owner's
# shard from its replicated store, so post-failover p99 stays in
# the pre-kill envelope — 10x for scheduler noise plus one 250ms
# attempt budget for requests in flight at the kill.
pre=$(phase_field pre-kill p99)
post=$(phase_field post-failover p99)
bound=$((pre * 10 + 250000))
if [ "$post" -gt "$bound" ]; then
    echo "FAIL: post-failover p99 ${post}us outside the warm" \
         "envelope (pre-kill ${pre}us, bound ${bound}us)" >&2
    exit 1
fi
echo "OK: post-failover p99 ${post}us within the warm envelope" \
     "(pre-kill ${pre}us)"

# Rejoin catch-up: the restarted node must have pulled the entries
# committed while it was dead before opening its socket.
catchup=$(curl -fsS "http://127.0.0.1:$q2/metrics" \
    | grep '^fosm_repl_catchup_entries_total' \
    | awk '{s += $NF} END {print int(s + 0)}')
if [ -z "$catchup" ] || [ "$catchup" -lt 1 ]; then
    echo "FAIL: rejoined :$q2 caught up ${catchup:-0} entries" \
         "(expected >= 1)" >&2
    cat "$tmp/serve-$q2.log" >&2
    exit 1
fi
echo "OK: rejoined :$q2 caught up $catchup entries"

if [ -n "${FOSM_DRILL_OUT:-}" ]; then
    {
        printf '{"bench":"repl-kill-rejoin-drill",'
        printf '"catchup_entries":%s,' "$catchup"
        printf '"report":'
        cat "$tmp/drill.json"
        printf '}\n'
    } > "$FOSM_DRILL_OUT"
    echo "drill report pinned to $FOSM_DRILL_OUT"
fi

echo "chaos smoke: PASS"
