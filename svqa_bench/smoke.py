#!/usr/bin/env python3
"""Smoke test of svqa_bench: every workload, untraced and traced, for 1 s.

    python3 smoke.py path/to/svqa_bench path/to/svqa_bench_traced \\
        path/to/BENCHMARK.json

Runs each workload the way run.py does and asserts that every run passes
its checks and prints exactly the metrics BENCHMARK.json names, each with
its unit: the end-to-end metrics without tracing, the per-layer metrics
with it. Makes no timing assertions. Traces go to ./smoke_traces/.
"""

import json
import os
import re
import sys

sys.dont_write_bytecode = True  # no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py beside this file)


def check_run(binaries, workload, trace, expected):
    out_dir = os.path.abspath("smoke_traces")
    os.makedirs(out_dir, exist_ok=True)
    rc, lines = run.run_workload(binaries, workload, 1, 1.0, trace,
                                 os.path.join(out_dir, workload + ".json"))
    errors = []
    if rc != 0:
        errors.append("exit code %d" % rc)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if not result.get("correct") or result.get("failed") != 0:
        errors.append("checks failed: correct=%s failed=%s"
                      % (result.get("correct"), result.get("failed")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metric names differ: missing %s, unexpected %s"
                      % (sorted(set(expected) - set(metrics)),
                         sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        if metrics.get(name, {}).get("unit") != unit:
            errors.append("%s: JSON unit is not %s" % (name, unit))
        line = re.compile(r"^%s \S+ %s$" % (re.escape(name), re.escape(unit)))
        if not any(line.match(l) for l in lines):
            errors.append("%s: no '%s <value> %s' line" % (name, name, unit))
    return errors


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    binaries, spec_path = (argv[0], argv[1]), argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    failures = 0
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in run.WORKLOADS:
            errors = check_run(binaries, workload, trace, expected)
            print("%-12s trace=%d %s" % (workload, trace, "ok" if not errors else "FAILED"))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
