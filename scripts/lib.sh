# Shared setup for the service drill scripts. Source it once $build
# names the build directory:
#
#   . "$repo/scripts/lib.sh"
#
# It names the tool binaries ($serve, $gateway, $loadgen), makes the
# scratch directory $tmp, and at exit SIGKILLs every pid in $pids and
# removes $tmp.

serve="$build/tools/fosm-serve"
gateway="$build/tools/fosm-gateway"
loadgen="$build/tools/fosm-loadgen"
tmp=$(mktemp -d)

pids=""
cleanup() {
    for pid in $pids; do
        kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

wait_healthy() { # $1 = port, $2 = name
    i=0
    # 30 s: a process (re)started while the loadgen saturates the
    # box can take a while to get scheduled on small CI runners.
    while ! curl -fsS "http://127.0.0.1:$1/healthz" \
            > /dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 300 ]; then
            echo "FAIL: $2 (:$1) never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# $1 = port, then extra fosm-serve flags. Starts fosm-serve without
# warmup, logging to $tmp/serve-$1.log; its pid is in $! and $pids.
start_replica() {
    "$serve" --no-warmup --port "$@" > "$tmp/serve-$1.log" 2>&1 &
    pids="$pids $!"
}
