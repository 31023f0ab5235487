#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload acquire|play --seed N \
        --seconds S --trace 0|1

Configures a Release build of perfbench/ (which pulls in the library and
ri_server from the repository's own CMake build) under .bench_build/,
runs the statistics self-test, then the workload. The workload's report
goes to stdout; its last line is the JSON result. Exits non-zero when the
build, the self-test, an output check, or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
WORKLOADS = ("acquire", "play")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench in Release; returns success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("the repository sources (CMakeLists.txt, src/) are missing")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    if not build():
        return 1
    if build_type() != "Release":
        log(f"refusing to measure a {build_type() or 'unknown'} build")
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout.decode(errors="replace"))
        log("statistics self-test failed")
        return 1

    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(BUILD, "repo", "ri_server"),
        "--work-dir", os.path.join(BUILD, "work"),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.decode(errors="replace").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines) + "\n")
        log(f"no result line (exit code {done.returncode})")
        return 1
    print("\n".join(lines), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
