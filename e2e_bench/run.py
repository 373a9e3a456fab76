#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see NOTES.md).

    python3 e2e_bench/run.py --workload fig11 --seed 1 --seconds 25 --trace 0

Run from the repository root. Configures and builds the e2e_bench package
(the library from src/ plus the e2e_bench binary) in Release under
$CARGO_TARGET_DIR (default .bench_build), then runs the binary with the same
arguments. Build output goes to stderr; the binary's last stdout line is the
result object. Exits non-zero without a result when the library sources are
missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: library sources (src/) not found next to e2e_bench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_CXX_COMPILER_LAUNCHER="])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["fig11", "flood", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and run temporaries stay inside the build directory too.
    scratch = os.path.join(build_dir, "e2e_scratch")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    if not build(build_dir, env):
        return 1
    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
