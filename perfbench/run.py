#!/usr/bin/env python3
"""Builds and runs the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Compiles the library sources under src/ and the perfbench binary with
CMake into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then runs it. Build output goes to standard error, so the last line
of standard output is the benchmark's result JSON. Run artifacts (digests,
spans, per-run result files) land in <build dir>/runs.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def check_call(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: command failed: " + " ".join(cmd))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are not next to "
                 "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    out = build_dir()
    build(out)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "runs")]
    if args.smoke:
        cmd.append("--smoke")
    bench = subprocess.Popen(cmd)
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
