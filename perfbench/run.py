#!/usr/bin/env python3
"""End-to-end benchmark of the BEES pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload redundant --seed 1 --seconds 12 --trace 0

The first run configures and builds the library and the benchmark driver
(perfbench/CMakeLists.txt) into .bench_build/; later runs rebuild
incrementally.  Each run drives the capture, query and fleet phases in
one process (see main.cpp), checks the outputs, and prints one JSON
object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(CPU costs, query throughput and latency, fleet wall time, modelled bytes
and joules, set-up time, peak memory the rounds add); with --trace 1 they
are its per-layer metrics, including the capture latencies and the tails,
derived partly from spans the driver records
around its own calls into each layer, and the spans are written to
.bench_out/ as a chrome://tracing file.  Every metric the driver measured
is also printed as a "# name = value unit" line.  Durable state lives
under a fresh directory in .bench_tmp/ that is removed when the run ends.

Fixed settings (open-loop rate, generator-lag bound, the fleet reference
digest, the held-out seed) and the layer-to-end-to-end interaction table
live in perfbench/config.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "bees_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "bees_perfbench"


def next_run_count():
    """Counts runs made in this checkout (part of every result's stamp)."""
    OUT_DIR.mkdir(exist_ok=True)
    counter = OUT_DIR / "run_count"
    count = int(counter.read_text()) + 1 if counter.is_file() else 1
    counter.write_text(f"{count}\n")
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((BENCH_DIR / "config.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    run_count = next_run_count()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    trace_out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--tmp", tmp,
           "--trace-out", str(trace_out),
           "--open-rate", repr(config["open_loop_rate_per_s"]),
           "--max-lag", repr(config["max_generator_lag_s"]),
           "--fleet-ref-seed", str(config["fleet_reference"]["seed"]),
           "--fleet-ref-digest", config["fleet_reference"]["digest"]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = proc.stdout.splitlines()
    has_result = bool(lines) and lines[-1].startswith("{")
    for line in lines[:-1] if has_result else lines:
        print(line)
    print(f"# stamp: run_count={run_count} build={BUILD_TYPE}")
    if proc.returncode not in (0, 1) or not has_result:
        log(f"benchmark exited with status {proc.returncode}; no result")
        return proc.returncode or 1
    raw = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"benchmark did not report {m['name']} in {m['unit']}")
            return 1
        metrics[m["name"]] = got
    for name, got in raw["metrics"].items():
        print(f"# {name} = {got['value']} {got['unit']}")
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if raw["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
