#!/usr/bin/env python3
"""Builds svqa_bench from the checkout's sources and runs one workload.

    python3 svqa_bench/run.py --workload ask_hot --seed 1 --seconds 20 --trace 0

Run it in a checkout of the repo. The first run configures the root CMake
project (Release) under .bench_build/svqa_bench with the include hook
svqa_bench/svqa_bench.cmake, which adds the benchmark targets, and builds
the two benchmark binaries; later runs rebuild only what changed. Build
output goes to stderr.

`--trace 0` runs svqa_bench for `--seconds`. `--trace 1` first runs
svqa_bench for half of `--seconds`, for the untraced value of the
workload's primary metric, then svqa_bench_traced for the other half; its
Chrome trace goes to .bench_build/trace_<workload>.json, and the last line
is its JSON result with the check counts of both runs. `--workload all`
runs every workload, each in its own process. The exit code is 0 only
when every check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ["ask_hot", "ask_publish", "batch_cold", "ingest"]
# The end-to-end metric trace_overhead_frac compares, per workload.
PRIMARY = {"ask_hot": "p50_ms", "ask_publish": "p50_ms",
           "batch_cold": "throughput_per_s", "ingest": "throughput_per_s"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "svqa_bench")


def build():
    """Configures and builds both binaries; returns (svqa_bench,
    svqa_bench_traced), or None when the build fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        sys.stderr.write("svqa_bench: no SVQA sources under %s\n" % ROOT)
        return None
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "svqa_bench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = [["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "svqa_bench", "svqa_bench_traced"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            hook = os.path.join(HERE, "svqa_bench.cmake")
            steps.insert(0, ["cmake", "-S", ROOT, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release",
                             "-DCMAKE_PROJECT_svqa_INCLUDE=" + hook])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.stderr.write("svqa_bench: build failed: %s\n" % " ".join(cmd))
                return None
    return (os.path.join(BUILD, "svqa_bench"),
            os.path.join(BUILD, "svqa_bench_traced"))


def invoke(cmd):
    """Runs one benchmark process (stderr passes through); returns its
    exit code, stdout lines and final JSON result (None if there is none)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def run_workload(binaries, workload, seed, seconds, trace, trace_out):
    """Runs one workload; returns (exit code, stdout lines). When the run
    succeeds, the last line is its JSON result."""
    plain, traced = binaries
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        rc, lines, _ = invoke([plain] + common +
                              ["--seconds", repr(seconds), "--trace", "0"])
        return rc, lines
    half = repr(seconds / 2)
    rc, lines, untraced = invoke([plain] + common +
                                 ["--seconds", half, "--trace", "0"])
    out = ["# untraced: " + line for line in lines]
    if rc != 0 or untraced is None:
        return rc or 1, out
    primary = untraced["metrics"][PRIMARY[workload]]["value"]
    rc, lines, result = invoke([traced] + common +
                               ["--seconds", half, "--trace", "1",
                                "--untraced_primary", repr(primary),
                                "--trace_out", trace_out])
    if rc != 0 or result is None:
        return rc or 1, out + lines
    result["attempted"] += untraced["attempted"]
    result["failed"] += untraced["failed"]
    return 0, out + lines[:-1] + [json.dumps(result)]


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    binaries = build()
    if binaries is None:
        return 1
    failed = []
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        trace_out = os.path.join(BUILD_ROOT, "trace_%s.json" % workload)
        rc, lines = run_workload(binaries, workload, args.seed, args.seconds,
                                 args.trace, trace_out)
        print("\n".join(lines), flush=True)
        if rc != 0:
            failed.append(workload)
    if failed:
        sys.stderr.write("svqa_bench: failed: %s\n" % " ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
