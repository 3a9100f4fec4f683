#!/usr/bin/env python3
"""Build and run the Group Scissor benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_lenet --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the repository's library from
source) into .bench_build/perfbench, then runs one workload with
GS_NUM_THREADS pinned. Build output goes to standard error; the last line of
standard output is the JSON result. The exit code is the benchmark's: 0 when
every output check passed, 1 when one failed, 2 on a usage, build or runtime
error (no result line).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compress_lenet", "serve_lenet", "fleet_lenet")
# Executor threads of the global pool; the serving workloads size their own
# pools. With the generator thread this leaves one core of four idle.
THREADS = "2"


def build() -> str:
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "3"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    env = dict(os.environ, GS_NUM_THREADS=THREADS)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(command, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
