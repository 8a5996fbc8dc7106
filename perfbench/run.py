#!/usr/bin/env python3
"""Run one workload of the MFTI benchmark and print its result line.

    python3 perfbench/run.py --workload serve_cold|serve_repeat \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the `perfbench` program (Release) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset; later runs only re-check the build.
Each run then prepares its inputs in a fresh work directory (untimed),
starts the timed `perfbench run` process, forwards its JSON result line as
the last line of standard output, and removes the work directory. Traced
runs also leave the per-layer metrics in `<build>/traces/`.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_cold", "serve_repeat")
# Prepare plus run, after the build: the whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; False when either step fails."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench")
    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        prepared = subprocess.run([binary, "prepare"] + common, stdout=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        if prepared.returncode != 0:
            log("prepare failed")
            return 1
        command = [binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        # The set-up clock starts here, before the process exists
        # (CLOCK_MONOTONIC on both sides).
        command += ["--t0", repr(time.monotonic())]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"run failed with exit code {done.returncode}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
