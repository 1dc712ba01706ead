#!/usr/bin/env python3
"""Builds the query-ledger benchmark from source and runs one workload.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/ledger (an
incremental no-op once built); scratch files go to a per-run directory under
.bench_build and are removed afterwards. The last line of standard output is
the benchmark's JSON result; build logs go to standard error. Exits non-zero
when the build fails, a check fails or the run overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "ledger")
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "prkb_ledger")
WORKLOADS = ("sql_warm_inproc", "remote_tm_4c", "durable_write_mix")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds prkb_ledger; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", LEDGER, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "prkb_ledger", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    return os.path.exists(BINARY)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not build():
        print("ledger: build failed", file=sys.stderr)
        return 3
    work = os.path.join(ROOT, ".bench_build", "ledger-work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
