#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: two untraced runs with different
seeds and one traced run, all at --scale tiny. Fails (exit 1) unless every
run passes its output checks, every named metric is present, finite and
carries its unit, the quality metrics are equal across the two untraced
runs, and the traced run emits every per-layer metric.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SAME_EVERY_RUN = ("ndcg_at_20", "recall_at_10", "snapshot_mb")


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace),
               "--scale", "tiny"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s seed %d trace %d: exit %d"
                             % (workload, seed, trace, proc.returncode))
    return json.loads(lines[-1])


def check_metrics(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError("%s: correct=%s attempted=%s"
                             % (label, result["correct"], result["attempted"]))
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise AssertionError("%s: missing %s, unexpected %s"
                             % (label, missing, extra))
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            raise AssertionError("%s: %s unit %r, want %r"
                                 % (label, m["name"], got.get("unit"),
                                    m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError("%s: %s value %r"
                                 % (label, m["name"], value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        try:
            first = run(workload, 1, 0)
            second = run(workload, 2, 0)
            traced = run(workload, 3, 1)
            check_metrics(first, spec["end_to_end"], workload + " seed 1")
            check_metrics(second, spec["end_to_end"], workload + " seed 2")
            check_metrics(traced, spec["per_layer"], workload + " traced")
            for name in SAME_EVERY_RUN:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    raise AssertionError("%s: %s differs across runs: %r vs %r"
                                         % (workload, name, a, b))
            print("ok   %s" % workload, flush=True)
        except (AssertionError, ValueError, subprocess.SubprocessError) as e:
            failures += 1
            print("FAIL %s: %s" % (workload, e), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
