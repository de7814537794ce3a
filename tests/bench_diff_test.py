#!/usr/bin/env python3
"""Unit tests for scripts/bench_diff.py: it flags same-machine regressions
and refuses to compare records from different machines or without a
machine fingerprint.

    python3 tests/bench_diff_test.py
"""

import copy
import importlib.util
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "bench_diff.py")
spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)

FINGERPRINT = {"nproc": 4, "cpu_model": "test cpu", "kernel": "Linux 6",
               "compiler": "gcc 12", "build_type": "RelWithDebInfo",
               "failpoints": True, "simd": "avx2", "git": "aaaa"}


def record(p50_ms, fingerprint=FINGERPRINT, tail_pct=99):
    out = {"bench": "server",
           "cells": [{"op": "ping", "connections": 8, "pipeline": 8,
                      "qps": 100000.0, "p50_ms": p50_ms, "tail_ms": 1.0,
                      "tail_pct": tail_pct, "n": 4096}]}
    if fingerprint is not None:
        out["fingerprint"] = copy.deepcopy(fingerprint)
    return out


class BenchDiffTest(unittest.TestCase):

    def test_same_machine_regression_is_flagged(self):
        current = record(p50_ms=0.5)
        current["fingerprint"]["git"] = "bbbb+dirty"  # git may differ
        warnings, refusal = bench_diff.diff_records(
            "BENCH_server.json", current, record(p50_ms=0.3), 0.2)
        self.assertIsNone(refusal)
        self.assertEqual(len(warnings), 1)
        self.assertIn("p50_ms", warnings[0])

    def test_within_threshold_is_quiet(self):
        warnings, refusal = bench_diff.diff_records(
            "BENCH_server.json", record(p50_ms=0.31), record(p50_ms=0.3), 0.2)
        self.assertIsNone(refusal)
        self.assertEqual(warnings, [])

    def test_differing_nproc_is_refused(self):
        other = dict(FINGERPRINT, nproc=1)
        warnings, refusal = bench_diff.diff_records(
            "BENCH_server.json", record(p50_ms=0.5),
            record(p50_ms=0.3, fingerprint=other), 0.2)
        self.assertEqual(warnings, [])
        self.assertIsNotNone(refusal)
        self.assertIn("nproc", refusal)
        self.assertNotIn("git", refusal)

    def test_fingerprintless_baseline_is_refused(self):
        warnings, refusal = bench_diff.diff_records(
            "BENCH_server.json", record(p50_ms=0.5),
            record(p50_ms=0.3, fingerprint=None), 0.2)
        self.assertEqual(warnings, [])
        self.assertIsNotNone(refusal)
        self.assertIn("baseline", refusal)

    def test_tail_pct_is_an_identity_key(self):
        # A p99.9 tail is not diffed against a p99 one.
        current = record(p50_ms=0.3, tail_pct=99.9)
        current["cells"][0]["tail_ms"] = 5.0
        warnings, refusal = bench_diff.diff_records(
            "BENCH_server.json", current, record(p50_ms=0.3), 0.2)
        self.assertIsNone(refusal)
        self.assertEqual(warnings, [])


if __name__ == "__main__":
    unittest.main()
