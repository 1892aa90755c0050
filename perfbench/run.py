#!/usr/bin/env python3
"""Build and run the LOFT simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload loft_uniform_16x16 --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the simulator
sources under src/) into .bench_build/ with CMake; later calls rebuild
incrementally. --workload all runs every workload of BENCHMARK.json in
turn. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when
the build fails, a run's output check fails, or the printed metrics do
not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(BENCH_DIR, "reference_fingerprints.txt")
RUN_TIMEOUT_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def manifest_names(key):
    with open(MANIFEST) as f:
        return [m["name"] for m in json.load(f)[key]]


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--span-file", os.path.join(
            OUT_DIR, "spans_%s_seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: %s printed no result (exit %d)"
            % (workload, proc.returncode))
        return proc.returncode or 1, None
    expected = manifest_names("per_layer" if trace else "end_to_end")
    if sorted(result["metrics"]) != sorted(expected):
        log("perfbench: printed metrics differ from BENCHMARK.json")
        return 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # Every workload in one command; metrics keyed "<workload>.<name>".
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in manifest_names("workloads"):
        print("== %s" % workload)
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            return code or 1
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
