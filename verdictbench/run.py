#!/usr/bin/env python3
"""Time-to-verdict benchmark for psketch: builds and runs verdict_bench.

Run from the repository root:

    python3 verdictbench/run.py --workload fig9 --seed 1 --seconds 50 --trace 0
    python3 verdictbench/run.py --selftest

The first call configures and builds the library from ../src and the
verdict_bench program into .bench_build/verdictbench (CMake, RelWithDebInfo).
The last line of standard output is the JSON result; build output goes
to standard error. See verdictbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "verdictbench")
BINARY = os.path.join(BUILD, "verdict_bench")


def run(cmd, **kwargs):
    """Runs cmd to completion; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    """Configures (once) and builds verdict_bench; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet = {"stdout": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], **quiet) != 0:
            return False
    return run(["cmake", "--build", BUILD, "-j", jobs], **quiet) == 0


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_metric_names():
    """verdict_bench's metric names and units must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {("end_to_end", m["name"], m["unit"]) for m in spec["end_to_end"]}
    declared |= {("per_layer", m["name"], m["unit"]) for m in spec["per_layer"]}
    out = subprocess.run([BINARY, "--list-metrics"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    printed = {tuple(line.split()) for line in out.stdout.splitlines()}
    ok = printed == declared
    print(("ok  " if ok else "FAIL") + " metric names and units match "
          "BENCHMARK.json" + ("" if ok else
                              f": only printed {sorted(printed - declared)},"
                              f" only declared {sorted(declared - printed)}"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        print("verdictbench: build failed", file=sys.stderr)
        return 1
    expected = os.path.join(HERE, "expected.tsv")
    if args.selftest:
        code = run([BINARY, "--selftest", "--expected", expected])
        return 1 if code != 0 or not check_metric_names() else 0

    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", expected, "--commit", commit()]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
