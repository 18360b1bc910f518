#!/usr/bin/env python3
"""Builds and runs the cold-path service benchmark.

Run from the repository root:

    python3 servicebench/run.py --workload large_cold --seed 1 --seconds 30 --trace 0

The first run configures and builds servicebench/ (the library, mbc_serve
and the servicebench program, Release) under .bench_build/; later runs only
rebuild what changed. Generated input graphs are kept under
.bench_build/servicebench-data/. The benchmark's last stdout line is the JSON
result (see README.md).
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir, log_path):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "servicebench", "-j", jobs]]
    # Once configured, the build step re-runs CMake itself when needed.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("servicebench: the repository sources are not next to " + HERE,
              file=sys.stderr)
        return 2
    out_dir = os.path.join(os.getcwd(), ".bench_build")
    build_dir = os.path.join(out_dir, "servicebench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "servicebench-build.log")
    if not build(build_dir, log_path):
        print("servicebench: build failed, see " + log_path, file=sys.stderr)
        return 1

    command = [
        os.path.join(build_dir, "servicebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", os.path.join(out_dir, "servicebench-data"),
    ]
    # Own process group, so a hung run can be stopped with its server.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("servicebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
