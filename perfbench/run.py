#!/usr/bin/env python3
"""Run one workload of the AWEsymbolic benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark package (perfbench/,
which pulls in the whole repository as a CMake subproject) from source under
$CARGO_TARGET_DIR (default .bench_build), then runs the perfbench program.
It prints its measurements and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  Exit status is 0 only
when every output check passed.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["perfbench", "awe_serve", "awesym_cli"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build the three targets; log to a file."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", "4", "--target"] + TARGETS)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd[:2]))
                return False
    return True


def stop_group(pgid):
    """Kill whatever perfbench left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 3
    # Relative paths keep the daemon's unix socket path short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work", args.workload))
    cmd = [os.path.join(build_dir, "bin", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "bin"), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        rc = 124
    finally:
        stop_group(proc.pid)
        proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
