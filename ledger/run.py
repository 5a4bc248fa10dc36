#!/usr/bin/env python3
"""The fosm perf ledger: one workload, one seed, one JSON result line.

    python3 ledger/run.py --workload cpi_mix --seed 1 --seconds 10 --trace 0

Builds fosm-serve, fosm-gateway and fosm-ledger from this checkout into
.bench_build/ledger, starts the servers as deployed (8,192-entry LRU,
persistent store on an empty directory, ephemeral ports), drives the
workload and prints the metrics BENCHMARK.json names: the end-to-end
ones with --trace 0, the per-layer split with --trace 1. The line before
the result is a record of the host, build and flags. Exits non-zero
when an answer is wrong or anything fails. See ledger/README.md.
"""

import argparse
import http.client
import json
import os
import pathlib
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ledger"
SERVING = ("cpi_mix", "cpi_gateway", "batch_sweep")
WORKLOADS = SERVING + ("validate",)
# Set-ups per run; setup_s is their median.
SETUPS = 5
START_TIMEOUT_S = 60


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"ledger: no fosm sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "fosm-serve", "fosm-gateway", "fosm-ledger"],
                   check=True, stdout=sys.stderr)


class Server:
    """A child server whose stdout is drained by a thread."""

    def __init__(self, argv):
        self.argv = argv
        self.lines = queue.Queue()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True,
                                     cwd=ROOT)
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()

    def _drain(self):
        for line in self.proc.stdout:
            self.lines.put(line)

    def port(self):
        """Block until the listening line; return the bound port."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"{self.argv[0]} did not start")
            try:
                line = self.lines.get(timeout=min(left, 1.0))
            except queue.Empty:
                continue
            m = re.search(r"listening on [^:\s]+:(\d+)", line)
            if m:
                return int(m.group(1))

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)


def healthy(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    finally:
        conn.close()


def start_stack(workload, run_dir, index, servers):
    """Start the deployed stack on an empty store; time it to healthy."""
    store = run_dir / f"store-{index}"
    serve_argv = [str(BUILD / "fosm" / "tools" / "fosm-serve"),
                  "--host", "127.0.0.1", "--port", "0",
                  "--store-dir", str(store)]
    t0 = time.perf_counter()
    serve = Server(serve_argv)
    servers.append(serve)
    backend = serve.port()
    if not healthy(backend):
        raise RuntimeError("fosm-serve /healthz is not 200")
    stack = {"serve": serve, "backend": backend, "port": backend}
    if workload == "cpi_gateway":
        gateway = Server([str(BUILD / "fosm" / "tools" / "fosm-gateway"),
                          "--host", "127.0.0.1", "--port", "0",
                          "--backends", f"127.0.0.1:{backend}"])
        servers.append(gateway)
        stack["gateway"] = gateway
        stack["port"] = gateway.port()
        if not healthy(stack["port"]):
            raise RuntimeError("fosm-gateway /healthz is not 200")
    stack["setup_s"] = time.perf_counter() - t0
    return stack


def stop_stack(stack, servers):
    for key in ("gateway", "serve"):
        if key in stack:
            stack[key].stop()
            servers.remove(stack[key])


def ledger(args, extra):
    argv = [str(BUILD / "fosm-ledger")] + args + extra
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"fosm-ledger exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def cmake_cache(key):
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return ""
    m = re.search(rf"^{re.escape(key)}:[^=]*=(.*)$", text, re.M)
    return m.group(1) if m else ""


def host_record():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], text=True,
                                 stdout=subprocess.PIPE).stdout
        version = version.splitlines()[0]
    except (OSError, IndexError):
        version = ""
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version or compiler,
        "build_type": build_type,
        "cxx_flags": cmake_cache(f"CMAKE_CXX_FLAGS_{build_type.upper()}"),
        "fosm_threads": os.environ.get("FOSM_THREADS", ""),
    }


def run_serving(a, run_dir, servers, record):
    setups = []
    stack = None
    for i in range(SETUPS):
        if stack:
            stop_stack(stack, servers)
        stack = start_stack(a.workload, run_dir, i, servers)
        setups.append(stack["setup_s"])
    record["serve_argv"] = stack["serve"].argv[1:]
    if "gateway" in stack:
        record["gateway_argv"] = stack["gateway"].argv[1:]
    extra = ["--port", str(stack["port"])]
    if a.workload == "cpi_gateway":
        extra += ["--backend-port", str(stack["backend"])]
    out = ledger(["serve", "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace),
                  "--work-dir", str(run_dir),
                  "--spans-dir", str(BUILD / "spans")], extra)
    rss_kb = sum(stack[k].peak_rss_kb() for k in ("serve", "gateway")
                 if k in stack)
    stop_stack(stack, servers)
    out["e2e"]["setup_s"] = statistics.median(setups)
    out["e2e"]["peak_rss_mb"] = rss_kb / 1024.0
    out["record"]["setups_s"] = setups
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # SIGTERM unwinds through the finally below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-",
                                            dir=ROOT / ".bench_build"))
    servers = []
    try:
        record = {"workload": a.workload, "seed": a.seed,
                  "seconds": a.seconds, "trace": a.trace,
                  "host": host_record()}
        if a.workload == "validate":
            out = ledger(["validate", "--seed", str(a.seed), "--seconds",
                          str(a.seconds), "--trace", str(a.trace),
                          "--root", str(ROOT), "--setups", str(SETUPS),
                          "--spans-dir", str(BUILD / "spans")],
                         [])
        else:
            out = run_serving(a, run_dir, servers, record)
    finally:
        for s in servers:
            s.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    record.update(out["record"])
    if a.trace:
        names = spec["per_layer"]
        values = {m["name"]: out["layers"].get(m["name"], 0.0)
                  for m in names}
        record["layers_on_path"] = sorted(out["layers"])
    else:
        names = spec["end_to_end"]
        values = {m["name"]: out["e2e"][m["name"]] for m in names}
    record["e2e_all"] = out["e2e"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(out["ok"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
