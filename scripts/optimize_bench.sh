#!/bin/sh
# Design-space optimization benchmark: the same >= 10k-point space is
# swept three ways and the frontiers must hash identically —
#   brute        client-side enumeration through /v1/batch chunks,
#                Pareto frontier computed in the load generator
#                (fresh server, fresh store);
#   planned-cold one POST /v1/optimize against a fresh server and
#                store (the sweep planner batches the space and fits
#                one IW characterization per distinct width);
#   planned-warm the identical /v1/optimize after a server restart on
#                the SAME store dir (the whole-response digest hits
#                the persistent tier: one store get, no planning).
# A fourth run, planned-overlap, grows the space by a few hundred
# points on the warm store: the whole-response digest misses but the
# planner dedupes every previously evaluated point against the
# per-point /v1/cpi entries and schedules only the new ones.
# Asserts
#   (1) frontier_hash identical across brute/cold/warm (bit-identical
#       frontier, the /v1/optimize correctness gate),
#   (2) planned-cold performs fewer IW characterizations than the
#       brute client-side enumeration,
#   (3) planned-cold end-to-end points/s beats brute,
#   (4) planned-overlap schedules only the new points,
# and merges the reports into BENCH_PR7.json.
# Usage: scripts/optimize_bench.sh [build-dir] [out.json]
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
out=${2:-"$repo/BENCH_PR7.json"}
. "$repo/scripts/lib.sh"

port=${FOSM_BENCH_PORT:-18791}
points=${FOSM_BENCH_POINTS:-12000}
seed=${FOSM_BENCH_SEED:-1}

start_server() { # $1 = store dir
    start_replica "$port" --store-dir "$1"
    wait_healthy "$port" fosm-serve
}

stop_server() { # SIGTERM: the store must close cleanly for the restart
    kill $pids 2>/dev/null || true
    wait $pids 2>/dev/null || true
    pids=""
}

run() { # $1 = mode, $2 = report file, $3 = point count
    "$loadgen" --port "$port" --optimize "$1" \
        --space-points "$3" --seed "$seed" --out "$2"
}

field() { # $1 = file, $2 = key (string value)
    grep -o "\"$2\":\"[^\"]*\"" "$1" | head -1 | cut -d: -f2 \
        | tr -d '"'
}
numfield() { # $1 = file, $2 = key (numeric value)
    grep -o "\"$2\":[0-9.e+-]*" "$1" | head -1 | cut -d: -f2
}

echo "== brute: client-side /v1/batch enumeration (fresh store)"
start_server "$tmp/store-brute"
run brute "$tmp/brute.json" "$points"
stop_server

echo "== planned-cold: /v1/optimize (fresh store)"
start_server "$tmp/store-planned"
run planned "$tmp/planned_cold.json" "$points"
stop_server

echo "== planned-warm: /v1/optimize after restart on the same store"
start_server "$tmp/store-planned"
run planned "$tmp/planned_warm.json" "$points"

echo "== planned-overlap: the space grown by ~2% on the warm store"
run planned "$tmp/planned_overlap.json" $((points + 240))
stop_server

hb=$(field "$tmp/brute.json" frontier_hash)
hc=$(field "$tmp/planned_cold.json" frontier_hash)
hw=$(field "$tmp/planned_warm.json" frontier_hash)
if [ "$hb" != "$hc" ] || [ "$hb" != "$hw" ]; then
    echo "FAIL: frontier hashes differ:" \
         "brute=$hb cold=$hc warm=$hw" >&2
    exit 1
fi
echo "OK: frontier bit-identical across all three runs ($hb)"

cb=$(numfield "$tmp/brute.json" characterizations)
cc=$(numfield "$tmp/planned_cold.json" characterizations)
if [ "$cc" -ge "$cb" ]; then
    echo "FAIL: planned-cold did $cc characterizations," \
         "brute $cb (expected fewer)" >&2
    exit 1
fi
echo "OK: planned-cold characterizations $cc < brute $cb"

pb=$(numfield "$tmp/brute.json" points_per_s)
pc=$(numfield "$tmp/planned_cold.json" points_per_s)
if ! awk "BEGIN { exit !($pc > $pb) }"; then
    echo "FAIL: planned-cold $pc points/s <= brute $pb" >&2
    exit 1
fi
echo "OK: planned-cold $pc points/s > brute $pb"

# The grown sweep must dedupe everything the original one evaluated:
# scheduled = feasible(new) - feasible(old).
of=$(numfield "$tmp/planned_overlap.json" feasible)
oldf=$(numfield "$tmp/planned_cold.json" feasible)
os=$(numfield "$tmp/planned_overlap.json" scheduled)
oh=$(numfield "$tmp/planned_overlap.json" cacheHits)
if [ "$os" -ne $((of - oldf)) ] || [ "$oh" -ne "$oldf" ]; then
    echo "FAIL: overlap sweep scheduled $os / deduped $oh" \
         "(expected $((of - oldf)) / $oldf)" >&2
    exit 1
fi
echo "OK: overlap sweep deduped $oh points, scheduled only $os"

python3 - "$tmp" "$out" <<'EOF'
import json, platform, sys
tmp, out = sys.argv[1], sys.argv[2]
load = lambda n: json.load(open(f"{tmp}/{n}.json"))
brute, cold, warm, overlap = (
    load(n) for n in
    ("brute", "planned_cold", "planned_warm", "planned_overlap"))
doc = {
    "date": "2026-08-09",
    "machine": {"platform": platform.platform()},
    "setup": {
        "binary": "tools/fosm-loadgen --optimize",
        "space_points": brute["space_cardinality"],
        "feasible": brute["feasible"],
        "constraint": brute["constraint"],
        "objectives": ["cpi", "windowSize"],
        "notes": "Same seed => identical space in all three runs. "
                 "brute: fresh server+store, client-side odometer "
                 "enumeration over /v1/batch chunks, frontier "
                 "computed client-side; planned-cold: one "
                 "/v1/optimize on a fresh server+store; "
                 "planned-warm: the identical /v1/optimize after a "
                 "restart on the same store dir, so every point "
                 "dedupes against the persistent tier. "
                 "'characterizations' counts IW fits: one per "
                 "(batch request x width) for brute vs one per "
                 "distinct width for the planner. planned-overlap "
                 "grows the space by ~2% on the warm store: the "
                 "whole-response digest misses but the planner "
                 "dedupes every previously evaluated point against "
                 "its per-point /v1/cpi entry and schedules only "
                 "the new ones.",
    },
    "brute": brute,
    "planned_cold": cold,
    "planned_warm": warm,
    "planned_overlap": overlap,
    "summary": {
        "frontier_bit_identical":
            brute["frontier_hash"] == cold["frontier_hash"]
            == warm["frontier_hash"],
        "frontier_hash": brute["frontier_hash"],
        "characterizations_brute": brute["characterizations"],
        "characterizations_planned": cold["characterizations"],
        "points_per_s_brute": brute["points_per_s"],
        "points_per_s_planned_cold": cold["points_per_s"],
        "points_per_s_planned_warm": warm["points_per_s"],
        "planned_cold_speedup":
            cold["points_per_s"] / brute["points_per_s"],
        "planned_warm_speedup":
            warm["points_per_s"] / brute["points_per_s"],
        "overlap_points_deduped":
            overlap["planner"]["cacheHits"],
        "overlap_points_scheduled":
            overlap["planner"]["scheduled"],
    },
}
json.dump(doc, open(out, "w"), indent=2)
print(f"wrote {out}")
EOF

echo "optimize bench: PASS"
