#!/bin/sh
# Tenant smoke test: boot a --tenants-file fosm-serve and a
# fosm-gateway in front of it, then assert the whole admission
# story end to end:
#   (1) auth is enforced at BOTH layers — no token and a bad token
#       get 401 from the serve and from the gateway; /healthz stays
#       open for probes,
#   (2) a client-forged X-Fosm-Tenant header never becomes an
#       identity — attribution follows the verified bearer token,
#   (3) a rate-limited tenant bursting past its bucket gets 429 +
#       Retry-After at the gateway (answered there, not upstream),
#   (4) the noisy-neighbor drill: a saturating /v1/batch tenant and
#       an equal-weight interactive /v1/cpi tenant share one serve;
#       DRR must hold the interactive tenant at >= 40% of drained
#       requests with a bounded p99 and zero client-visible errors
#       (deliberate 429s excluded). The measured shares are pinned
#       in BENCH_PR9.json.
# Usage: scripts/tenant_smoke.sh [build-dir]
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
. "$repo/scripts/lib.sh"

base=${FOSM_SMOKE_PORT:-18860}
sp=$((base + 1))
gp=$base

status_of() { # $@ = curl args; prints the HTTP status
    curl -s -o /dev/null -w '%{http_code}' "$@"
}

cat > "$tmp/tenants.json" <<'EOF'
{"tenants": [
  {"id": "interactive", "token": "tok-interactive", "weight": 1},
  {"id": "noisy", "token": "tok-noisy", "weight": 1},
  {"id": "limited", "token": "tok-limited",
   "rate_rps": 0.5, "burst": 1}
]}
EOF

echo "== booting tenant-enabled serve on :$sp and gateway on :$gp"
start_replica "$sp" --no-store --queue 64 \
    --tenants-file "$tmp/tenants.json"
"$gateway" --port "$gp" --backends "127.0.0.1:$sp" \
    --tenants-file "$tmp/tenants.json" --health-interval 100 \
    > "$tmp/gateway.log" 2>&1 &
pids="$pids $!"
wait_healthy "$sp" serve
wait_healthy "$gp" gateway

body='{"workload":"gcc"}'

echo "== auth at the serve"
s=$(status_of -d "$body" "http://127.0.0.1:$sp/v1/cpi")
[ "$s" = "401" ] || { echo "FAIL: no-token serve got $s" >&2; exit 1; }
s=$(status_of -d "$body" -H "Authorization: Bearer wrong" \
    "http://127.0.0.1:$sp/v1/cpi")
[ "$s" = "401" ] || { echo "FAIL: bad-token serve got $s" >&2; exit 1; }
s=$(status_of -d "$body" -H "Authorization: Bearer tok-interactive" \
    "http://127.0.0.1:$sp/v1/cpi")
[ "$s" = "200" ] || { echo "FAIL: good-token serve got $s" >&2; exit 1; }
echo "OK: serve 401s without a token, 200 with one, /healthz open"

echo "== auth at the gateway"
s=$(status_of -d "$body" "http://127.0.0.1:$gp/v1/cpi")
[ "$s" = "401" ] || { echo "FAIL: no-token gateway got $s" >&2; exit 1; }
s=$(status_of -d "$body" -H "Authorization: Bearer tok-interactive" \
    "http://127.0.0.1:$gp/v1/cpi")
[ "$s" = "200" ] || { echo "FAIL: good-token gateway got $s" >&2; exit 1; }
echo "OK: gateway enforces the same tokens"

echo "== forged X-Fosm-Tenant does not become an identity"
s=$(status_of -d "$body" -H "Authorization: Bearer tok-interactive" \
    -H "X-Fosm-Tenant: forged-root" "http://127.0.0.1:$gp/v1/cpi")
[ "$s" = "200" ] || { echo "FAIL: forged-header call got $s" >&2; exit 1; }
if curl -fsS "http://127.0.0.1:$sp/metrics" \
        | grep -q 'tenant="forged-root"'; then
    echo "FAIL: forged tenant id reached the backend metrics" >&2
    exit 1
fi
curl -fsS "http://127.0.0.1:$sp/metrics" \
    | grep -q 'fosm_tenant_admitted_total{tenant="interactive"}' \
    || { echo "FAIL: verified tenant not attributed" >&2; exit 1; }
echo "OK: attribution follows the verified token"

echo "== rate limit answers 429 + Retry-After at the gateway"
# burst 1 at 0.5 rps: the second back-to-back request must trip it.
status_of -d "$body" -H "Authorization: Bearer tok-limited" \
    "http://127.0.0.1:$gp/v1/cpi" > /dev/null
curl -s -D "$tmp/429.headers" -o "$tmp/429.body" -d "$body" \
    -H "Authorization: Bearer tok-limited" \
    "http://127.0.0.1:$gp/v1/cpi"
grep -q '^HTTP/1.1 429' "$tmp/429.headers" \
    || { echo "FAIL: burst did not 429" >&2
         cat "$tmp/429.headers" >&2; exit 1; }
grep -qi '^Retry-After:' "$tmp/429.headers" \
    || { echo "FAIL: 429 without Retry-After" >&2; exit 1; }
# Answered at the gateway: the serve never saw a 'limited' request
# beyond the one admitted above.
admitted=$(curl -fsS "http://127.0.0.1:$sp/metrics" \
    | grep 'fosm_tenant_admitted_total{tenant="limited"}' \
    | awk '{print $NF}')
[ "$admitted" = "1" ] \
    || { echo "FAIL: serve saw $admitted 'limited' requests" >&2
         exit 1; }
echo "OK: 429 with Retry-After, shed before the backend"

echo "== noisy-neighbor drill (direct against the serve's DRR queue)"
"$loadgen" --port "$sp" --connections 4 --warmup 1 --duration 6 \
    --distinct 0 --tenant-spec \
    'interactive:tok-interactive:1,noisy:tok-noisy:1:0:/v1/batch:64' \
    --out "$tmp/drill.json" > "$tmp/loadgen.log" 2>&1 \
    || { echo "FAIL: loadgen exited nonzero" >&2
         cat "$tmp/loadgen.log" >&2; exit 1; }
cat "$tmp/loadgen.log"

# head -1: the aggregate counts precede the per-tenant rows; the
# first per-tenant row is 'interactive' (spec order).
errors=$(grep -o '"requests_error":[0-9]*' "$tmp/drill.json" \
    | head -1 | cut -d: -f2)
unauthorized=$(grep -o '"requests_401":[0-9]*' "$tmp/drill.json" \
    | head -1 | cut -d: -f2)
share=$(grep -o '"ok_share":[0-9.e-]*' "$tmp/drill.json" \
    | head -1 | cut -d: -f2)
p99=$(grep -o '"p99_us":[0-9.e-]*' "$tmp/drill.json" \
    | sed -n 2p | cut -d: -f2) # 1st is the aggregate block
noisy_share=$(grep -o '"ok_share":[0-9.e-]*' "$tmp/drill.json" \
    | sed -n 2p | cut -d: -f2)

if [ "$errors" != "0" ] || [ "$unauthorized" != "0" ]; then
    echo "FAIL: drill saw $errors errors, $unauthorized 401s" >&2
    exit 1
fi
awk "BEGIN{exit !($share >= 0.40)}" \
    || { echo "FAIL: interactive drained share $share < 0.40" >&2
         exit 1; }
awk "BEGIN{exit !($p99 < 500000)}" \
    || { echo "FAIL: interactive p99 ${p99}us not bounded" >&2
         exit 1; }
echo "OK: interactive share $share (>= 0.40), p99 ${p99}us bounded"

cat > "$repo/BENCH_PR9.json" <<EOF
{
  "benchmark": "tenant_smoke noisy-neighbor drill",
  "setup": "fosm-serve --tenants-file, 2 equal-weight tenants: interactive closed-loop /v1/cpi vs noisy closed-loop /v1/batch x64 rows, 4 connections, 6 s measured",
  "interactive_ok_share": $share,
  "interactive_p99_us": $p99,
  "noisy_ok_share": $noisy_share,
  "client_errors": $errors,
  "client_401s": $unauthorized,
  "assertions": {
    "interactive_ok_share_min": 0.40,
    "interactive_p99_us_max": 500000,
    "client_errors": 0
  }
}
EOF
echo "pinned $repo/BENCH_PR9.json"
echo "tenant smoke: PASS"
