#!/usr/bin/env python3
"""Checks of the query-ledger benchmark itself.

    python3 ledger/test_ledger.py

- Exact-count fingerprint: two runs of a single-client workload with one
  seed must report identical QPF uses, round trips, splits, WAL bytes and
  winners hash.
- remote_tm_4c is exempt (its sampling RNG is shared across client threads,
  so counts depend on interleaving); its QPF uses per op must instead agree
  within 10% across two runs.
- A seed not used while the benchmark was written passes every check.
- Without the program's sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
import run  # noqa: E402  (the benchmark's own build step)

SECONDS = "2"
FRESH_SEED = 7919


def run_binary(workload, seed, work):
    """Runs one untraced workload; returns (exit code, fingerprint, result)."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", "0", "--work-dir", work],
        capture_output=True, text=True, timeout=300)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    fp = None
    for line in lines:
        if line.startswith("fingerprint "):
            fp = json.loads(line[len("fingerprint "):])
    return out.returncode, fp, json.loads(lines[-1]) if lines else None


class LedgerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("ledger build failed")
        cls.work = os.path.join(ROOT, ".bench_build", "ledger-test")

    def test_fingerprint_repeats(self):
        for workload in ("sql_warm_inproc", "durable_write_mix"):
            with self.subTest(workload=workload):
                code1, fp1, _ = run_binary(workload, 3, self.work)
                code2, fp2, _ = run_binary(workload, 3, self.work)
                self.assertEqual((code1, code2), (0, 0))
                self.assertIsNotNone(fp1)
                self.assertEqual(fp1, fp2)

    def test_remote_counts_bounded(self):
        per_op = []
        for _ in range(2):
            code, _, res = run_binary("remote_tm_4c", 3, self.work)
            self.assertEqual(code, 0)
            per_op.append(res["metrics"]["qpf_uses_per_op"]["value"])
        self.assertLess(abs(per_op[0] - per_op[1]) / max(per_op), 0.10)

    def test_fresh_seed_passes_checks(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, _, res = run_binary(workload, FRESH_SEED, self.work)
                self.assertEqual(code, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "ledger-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "ledger"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "ledger/run.py", "--workload", "sql_warm_inproc",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
