#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. The first run configures and builds
perfbench/ (a CMake project over ../src) into .bench_build/perfbench;
later runs rebuild incrementally. The benchmark's own output, ending with
the one-line JSON result, goes to stdout; build output goes to stderr.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("mixed-resident", "box-spill", "hot-pipelined", "scatter-4shard")


def run(cmd, timeout_s, **kwargs):
    """Runs `cmd` in its own process group and returns its exit code, or
    None when it could not start or outlived `timeout_s`. On timeout the
    whole group (make and compiler children included) is killed and
    reaped."""
    try:
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    except OSError as e:
        print("perfbench: cannot start %s: %s" % (cmd[0], e), file=sys.stderr)
        return None
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s exceeded %d s" % (cmd[0], timeout_s),
              file=sys.stderr)
        return None


def build():
    """Configures (once) and builds the perfbench target. Returns the
    binary's path, or None when the build fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_out = os.path.join(
        TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH_DIR, "--trace-out", trace_out]
    sys.stdout.flush()
    code = run(cmd, RUN_TIMEOUT_S)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
