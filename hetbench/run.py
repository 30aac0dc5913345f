#!/usr/bin/env python3
"""Builds and runs the hetpar plan-time / plan-quality benchmark.

Run from the root of a hetpar checkout:

    python3 hetbench/run.py --workload suite-b-warm --seed 1 --seconds 40 --trace 0

The first run configures and builds the libraries under src/ plus the
hetbench binary into .bench_build/hetbench (Release). Every run then runs
its self-test (about 2.5 s): the correctness gate must reject a tampered
solution table and the metric aggregation must match hand-computed values.
It then compiles the workload's programs for --seconds and prints the
metrics; the last stdout line is the JSON result. The exit code is non-zero
when the build, the self-test or any correctness check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = Path(".bench_build")
BUILD_DIR = BUILD_ROOT / "hetbench"
OUT_DIR = BUILD_ROOT / "hetbench-out"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hetbench: {message}", file=sys.stderr)
    return 1


def build():
    """Configures (once) and builds hetbench; returns its path or None."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "hetbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                return None
    return BUILD_DIR / "hetbench"


def self_test(binary):
    """Runs hetbench's self-test; True when it passed."""
    result = subprocess.run([str(binary), "--self-test"], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        print(result.stdout, file=sys.stderr)
        return False
    return True


def build_stamp(binary):
    """Content hash of the binary: the determinism record is kept per build."""
    return hashlib.sha256(binary.read_bytes()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path("src") / "CMakeLists.txt").is_file():
        return fail("no src/CMakeLists.txt here; run from the root of a hetpar checkout")
    binary = build()
    if binary is None:
        return fail("build failed")
    if not self_test(binary):
        return fail("self-test failed")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--repo-root", ".", "--out-dir", str(OUT_DIR),
               "--build-stamp", build_stamp(binary)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
