#!/usr/bin/env python3
"""Builds the serving benchmark from this source tree and runs one workload.

    python3 bench/serving/run.py --workload batch-mnist --seed 1 --seconds 20 --trace 0

Configures bench/serving with CMake (Release) under the output directory --
$CARGO_TARGET_DIR when set, else .bench_build at the repository root --
builds it, runs hdlock_serving_bench and relays its output.  The last line
of standard output is the JSON result; the exit status is the benchmark's.
The CMake tree goes to <output dir>/build (hdlock_lint skips directories
named build*, and CMake leaves probe sources there); run ledgers and span
files land in <output dir>/runs.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("batch-mnist", "serve-pamap", "rotate-isolet")
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    """Configures and builds the benchmark; returns the binary's path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "hdlock_serving_bench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"error: build failed ({' '.join(step)}); see {log_path}")
    return build_dir / "hdlock_serving_bench"


def commit() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(out_dir / "build")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(out_dir / "runs"), "--commit", commit()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: benchmark did not finish within {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
