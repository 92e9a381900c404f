#!/usr/bin/env python3
"""MaskSearch serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
repository's core library from ../src) into .bench_build/ at the checkout
root, then runs one workload. The binary prints detail on stderr and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero on any wrong answer, failed
durability check or error. Workloads and metrics are listed in
BENCHMARK.json; perfbench/README.md describes them.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and incrementally builds the binary; True on success."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: the MaskSearch sources (CMakeLists.txt, src/) are not "
            "next to perfbench/; run from a full checkout")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                   "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def run_binary(workload, seed, seconds, trace, inject_latency_us=0.0,
               capture=False):
    """Runs the binary once. With capture, returns (returncode, stdout)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK_DIR)]
    if inject_latency_us:
        cmd += ["--inject-latency-us", str(inject_latency_us)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          timeout=RUN_TIMEOUT_S, text=True)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 3
    code, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
