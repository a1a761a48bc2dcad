"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

They check that the input generators are pure functions of the seed, that
the layer tracer restores every patched attribute even when an op raises,
and that the output checkers reject a deliberately perturbed record.
"""

from __future__ import annotations

import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import Session  # noqa: E402
from repro.core.explorer import pareto_front  # noqa: E402
from repro.sweep.spec import SweepSpec  # noqa: E402

SMALL_GRID = {
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
    "lifetimes": [2, 5],
    "system_volumes": [1e4, 1e6],
}


def _perturbed(value: float) -> float:
    return math.nextafter(value, math.inf)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_spec(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.spec_dict(name, 7), workloads.spec_dict(name, 7))

    def test_other_seed_same_size_other_values(self):
        for name in workloads.WORKLOADS:
            first, second = workloads.spec_dict(name, 7), workloads.spec_dict(name, 8)
            self.assertNotEqual(first, second, name)
            self.assertEqual(
                SweepSpec.from_dict(first).count(), SweepSpec.from_dict(second).count(), name
            )

    def test_grid_sizes(self):
        sizes = {name: SweepSpec.from_dict(workloads.spec_dict(name, 3)).count()
                 for name in workloads.WORKLOADS}
        self.assertEqual(
            sizes,
            {"sweep-bulk": 32000, "sweep-parallel": 32000, "sweep-churn": 6480, "analyse": 32000},
        )


class TracerTests(unittest.TestCase):
    def _originals(self):
        return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in layertrace.entry_points()]

    def test_restores_every_attribute_when_the_op_raises(self):
        before = self._originals()
        tracer = layertrace.Tracer()
        with self.assertRaises(ValueError):
            with tracer.installed():
                for owner, attr, original in before:
                    self.assertIsNot(vars(owner)[attr], original)
                Session(backend="batch").sweep()  # no spec given: raises
        for owner, attr, original in before:
            self.assertIs(vars(owner)[attr], original, attr)

    def test_spans_nest_and_self_time_excludes_children(self):
        tracer = layertrace.Tracer()
        tracer.begin_op(1)
        with tracer.installed(), tracer.span("op"):
            Session(backend="batch").sweep(SMALL_GRID)
        total, self_time, calls = layertrace.op_layers(tracer.spans)
        for name in ("api.sweep", "engine.run", "engine.wait", "spec.expand",
                     "fastpath.group", "fastpath.compile", "fastpath.evaluate"):
            self.assertIn(name, calls)
        self.assertEqual(tracer.result_sizes["spec.expand"], 64)
        self.assertAlmostEqual(
            sum(self_time.values()), total["op"], delta=1e-9 * len(tracer.spans)
        )
        self.assertLess(self_time["api.sweep"], total["api.sweep"])


class CheckerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = SweepSpec.from_dict(SMALL_GRID)
        cls.scenarios = spec.expand()
        cls.records = list(Session(backend="batch").sweep(spec).records)

    def test_oracle_accepts_true_rows_and_rejects_a_perturbed_one(self):
        oracle = Session()
        rows = dict(enumerate(self.records))
        self.assertEqual(workloads.oracle_mismatches(oracle, self.scenarios, rows), [])
        bad = dict(self.records[5], total_carbon_g=_perturbed(self.records[5]["total_carbon_g"]))
        problems = workloads.oracle_mismatches(oracle, self.scenarios, {**rows, 5: bad})
        self.assertEqual(len(problems), 1)
        self.assertIn("row 5", problems[0])

    def test_pareto_checker_accepts_the_front_and_rejects_perturbations(self):
        rows = Session(backend="batch").sweep(SMALL_GRID).rows()
        objectives = workloads.PARETO3
        vectors = [[row.record[name] for name in objectives] for row in rows]
        front = [rows.index(row) for row in pareto_front(rows, objectives)]
        self.assertEqual(workloads.pareto_mismatches(vectors, front), [])
        # A record outside the front perturbed to dominate everything.
        outside = next(i for i in range(len(rows)) if i not in front)
        vectors[outside] = [min(v[k] for v in vectors) / 2 for k in range(len(objectives))]
        self.assertTrue(workloads.pareto_mismatches(vectors, front))
        # A front that drops one of its members.
        vectors = [[row.record[name] for name in objectives] for row in rows]
        self.assertTrue(workloads.pareto_mismatches(vectors, front[1:]))

    def test_workload_check_rejects_a_perturbed_op_output(self):
        run.WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
            workload = workloads.make_workload("sweep-churn", 3, Path(tmp))
            output = workload.op()
            self.assertEqual(workload.check(output, 0), [])
            record = output.records[17]
            record["total_carbon_g"] = _perturbed(record["total_carbon_g"])
            self.assertTrue(workload.check(output, 0))

    def test_store_check_rejects_a_perturbed_line(self):
        run.WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
            workload = workloads.make_workload("sweep-bulk", 3, Path(tmp))
            output = workload.op()
            self.assertEqual(workload.check(output, 0), [])
            lines = workload.out.read_bytes().splitlines(keepends=True)
            lines[17] = lines[17].replace(b'"total_carbon_g": ', b'"total_carbon_g": 1')
            workload.out.write_bytes(b"".join(lines))
            self.assertTrue(workload.check(output, 0))
            workload.out.write_bytes(b"".join(lines[:-1]))
            self.assertIn("rows", workload.check(output, 0)[0])


class TailTests(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        samples = [float(i) for i in range(1, 41)]
        result = run.tail(samples)
        self.assertEqual(sum(1 for s in samples if s > result["value"]), run.TAIL_BEYOND)
        self.assertEqual(result["percentile"], 75.0)


class CalibrationTests(unittest.TestCase):
    def test_ops_are_scaled_to_the_reference_speed(self):
        slow = 2 * run.CALIBRATION_NOMINAL_S
        scaled = run.scaled_samples([1.0, 3.0], [0, 1], [slow] * 3)
        for value, expected in zip(scaled, [0.5, 1.5]):
            self.assertAlmostEqual(value, expected)

    def test_one_outlying_pass_moves_no_op(self):
        nominal = run.CALIBRATION_NOMINAL_S
        passes = [nominal] * 8
        passes[3] = 10 * nominal
        scaled = run.scaled_samples([1.0] * 7, list(range(7)), passes)
        self.assertEqual(scaled, [1.0] * 7)


if __name__ == "__main__":
    unittest.main()
