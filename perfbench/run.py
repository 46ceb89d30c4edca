#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload refresh|serve_scan|serve_ann_reload \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

The build goes to .bench_build/ at the checkout root (Release, library
sources from src/). The binary's stdout is passed through; its last line is
the result object. Exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ next to perfbench/; nothing to build")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                            stdout=sys.stderr)
    return result.returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["refresh", "serve_scan", "serve_ann_reload"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", args.scale, "--out-dir", OUT]
    env = dict(os.environ, SUBREC_NUM_THREADS="1")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        log("perfbench: exited %d without a result" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        log("perfbench: exited %d; last line is not a result: %r"
            % (proc.returncode, lines[-1]))
        return 1
    print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not result.get("correct", False):
        log("perfbench: output checks failed (exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
