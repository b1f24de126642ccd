#!/usr/bin/env python3
"""Build and run the qsimec benchmark.

    python3 perfbench/run.py --workload small_pairs|paper_pairs \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library, the `qsimec` CLI and the `perfbench` binary (Release) under
$CARGO_TARGET_DIR, or `.bench_build` when it is unset; later runs only
re-check the build. Build output goes to stderr. The benchmark's own output
(provenance lines, then one JSON result line) goes to stdout; the result
line is always the last line and is printed only when the run succeeded.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_pairs", "paper_pairs")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("perfbench: no qsimec sources next to perfbench/; "
                         "run from a full checkout\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "perfbench",
                  "qsimec_cli"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = os.path.join(build_dir(), "perfbench")
    if not build(out):
        return 2
    work = os.path.join(build_dir(), "perfbench-work",
                        "%s-%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--qsimec", os.path.join(out, "qsimec", "apps", "qsimec"),
               "--work", work]
    # its own process group, so a timeout stops the daemon and probes it started
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % child.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
