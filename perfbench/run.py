#!/usr/bin/env python3
"""Builds and runs the OCD benchmark (perfbench/ocd_perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one process
    python3 perfbench/run.py --selftest       # the benchmark's own tests

The library and the benchmark are built from source into .bench_build/
at the repository root (Release, so NDEBUG is set).  The benchmark's
last stdout line is one JSON object with "correct", "attempted",
"failed" and "metrics"; for a single workload this script checks that
the metric names are exactly those BENCHMARK.json lists for the mode.
The exit code is non-zero when the build fails, a run fails the
correctness gate, or the result is malformed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ["dense_global", "ts_lossy", "sharded_ts", "exact_gap"]
DEFAULT_SEED = 1
# Gains claimed on DEFAULT_SEED are re-checked on this seed; both have
# pinned outputs in pins.hpp.
HELD_OUT_SEED = 7
# A single-workload run is bounded well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                            target, "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        fail("building the benchmark failed")
    return BUILD_DIR / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, argv, timeout):
    # Its own process group, so a timeout can stop the forked shard workers too.
    proc = subprocess.Popen([str(binary)] + argv, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark exceeded {timeout} s", code=1)
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)]).returncode)

    binary = build("ocd_perfbench")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        argv += ["--trace-out",
                 str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    single = args.workload != "all"
    code, lines = run(binary, argv, RUN_TIMEOUT_S if single else None)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"benchmark exited {code} without a result", code=code or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}", code=1)
    if single and set(result["metrics"]) != expected_metrics(args.trace):
        fail("metric names differ from BENCHMARK.json", code=1)
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
