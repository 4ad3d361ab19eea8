#!/usr/bin/env python3
"""Tests for scripts/check_bench_regression.py (run by ctest as
`bench_gate_test`).

Runs the gate on small synthetic `hicc.bench.v1` records and pins its
exit codes: 0 pass, 1 normalized-ns or allocation regression, 2 a
malformed record (missing row, wrong schema, non-positive ns_per_op).
Also checks that the committed baseline gates clean against itself on
every row CI gates.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "scripts", "check_bench_regression.py")
BASELINE = os.path.join(ROOT, "bench", "BENCH_MICRO.json")
# The rows the bench-smoke CI job gates.
CI_GATED = ["BM_SimulatorScheduleRun", "BM_ClosFabricForward",
            "BM_ParallelWindowBarrier/1", "BM_FlowChurn",
            "BM_SketchInsertMerge", "BM_IotlbThrash"]


def record(schema="hicc.bench.v1", **rows):
    """A bench record with a 100 ns reference spin; each keyword is a
    row name with its (ns_per_op, allocs_per_op)."""
    rows = {"BM_ReferenceSpin": (100.0, 0.0), **rows}
    return {"schema": schema, "benchmarks": [
        {"name": name, "ns_per_op": ns, "items_per_sec": 1e9 / ns if ns > 0 else 0,
         "allocs_per_op": allocs, "iterations": 1000}
        for name, (ns, allocs) in rows.items()]}


BASE = record(BM_SimulatorScheduleRun=(20.0, 0.0), BM_FlowChurn=(10.0, 0.0))


class GateExitCodes(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def gate(self, current, *flags, baseline=BASE):
        paths = []
        for name, rec in (("base.json", baseline), ("cur.json", current)):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                json.dump(rec, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, GATE, *paths, *flags],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_same_normalized_cost_on_a_slower_machine_passes(self):
        # Everything twice as slow, reference included: rel is unchanged.
        cur = record(BM_ReferenceSpin=(200.0, 0.0),
                     BM_SimulatorScheduleRun=(40.0, 0.0), BM_FlowChurn=(20.0, 0.0))
        rc, out = self.gate(cur)
        self.assertEqual(rc, 0, out)

    def test_normalized_ns_regression_exits_1(self):
        cur = record(BM_SimulatorScheduleRun=(26.0, 0.0), BM_FlowChurn=(10.0, 0.0))
        rc, out = self.gate(cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("regressed", out)

    def test_alloc_regression_exits_1(self):
        cur = record(BM_SimulatorScheduleRun=(20.0, 1.0), BM_FlowChurn=(10.0, 0.0))
        rc, out = self.gate(cur)
        self.assertEqual(rc, 1, out)
        self.assertIn("allocates", out)

    def test_every_repeated_benchmark_is_gated(self):
        cur = record(BM_SimulatorScheduleRun=(20.0, 0.0), BM_FlowChurn=(13.0, 0.0))
        # The regressed row comes first: a gate that kept only the last
        # --benchmark would pass.
        rc, out = self.gate(cur, "--benchmark", "BM_FlowChurn",
                            "--benchmark", "BM_SimulatorScheduleRun")
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL: BM_FlowChurn", out)

    def test_missing_gated_row_exits_2(self):
        cur = record(BM_FlowChurn=(10.0, 0.0))
        rc, out = self.gate(cur, baseline=record(BM_FlowChurn=(10.0, 0.0)))
        self.assertEqual(rc, 2, out)
        self.assertIn("BM_SimulatorScheduleRun", out)

    def test_baseline_row_missing_from_current_exits_2(self):
        cur = record(BM_SimulatorScheduleRun=(20.0, 0.0))
        rc, out = self.gate(cur)
        self.assertEqual(rc, 2, out)
        self.assertIn("BM_FlowChurn", out)

    def test_wrong_schema_exits_2(self):
        cur = record("hicc.bench.topology.v1",
                     BM_SimulatorScheduleRun=(20.0, 0.0), BM_FlowChurn=(10.0, 0.0))
        rc, out = self.gate(cur)
        self.assertEqual(rc, 2, out)

    def test_non_positive_ns_exits_2(self):
        cur = record(BM_SimulatorScheduleRun=(0.0, 0.0), BM_FlowChurn=(10.0, 0.0))
        rc, out = self.gate(cur)
        self.assertEqual(rc, 2, out)


class CommittedBaseline(unittest.TestCase):
    def test_baseline_gates_clean_against_itself_on_every_ci_row(self):
        flags = [arg for name in CI_GATED for arg in ("--benchmark", name)]
        proc = subprocess.run([sys.executable, GATE, BASELINE, BASELINE, *flags],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count("normalized ratio: 1.000"), len(CI_GATED))


if __name__ == "__main__":
    unittest.main()
