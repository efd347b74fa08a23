#!/usr/bin/env python3
"""Build and run the benchmark of record for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--inject-mismatch N]

Run from the repository root.  The simulator library and the harness
are built from source (Release) under .bench_build/perfbench; build
output goes to standard error.  Every run first executes the harness
self-tests, then the workload.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; its metric names and
units are checked against BENCHMARK.json.  The exit code is nonzero
when the build, a self-test, a correctness check or that contract
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def run_selftest():
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench_selftest"), "--workdir", BUILD],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=ROOT, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def contract_errors(result, trace):
    """Differences between the result's metrics and BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = ["missing metric %s" % k for k in want if k not in got]
    errors += ["unlisted metric %s" % k for k in got if k not in want]
    errors += ["unit of %s is %s, not %s" % (k, got[k], want[k])
               for k in want if k in got and got[k] != want[k]]
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", type=int, default=0,
                    help="perturb the N-th cell result (checks must fail)")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if not run_selftest():
        print("perfbench: self-tests failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "work-" + args.workload)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD, "spans-%s.jsonl" % args.workload)]
    if args.inject_mismatch:
        cmd += ["--inject-mismatch", str(args.inject_mismatch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2

    errors = contract_errors(json.loads(lines[-1]), args.trace)
    if errors:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for e in errors:
            print("perfbench: " + e, file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
