"""Acceptance tests of the universal axis API.

The tentpole contract: a wafer-diameter x defect-density x lifetime sweep
runs end-to-end through :meth:`repro.api.Session.sweep` with records
bit-identical to the scalar reference oracle (jobs=1 and jobs=4), and an
out-of-tree axis registered in ``examples/custom_axis.py`` sweeps without
modifying any :mod:`repro.sweep` internals — including across worker
processes, which auto-import the axis plugin module.
"""

from __future__ import annotations

import json

import pytest

from repro import Session
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import SweepSpec

#: The acceptance grid: three knobs the legacy spec could not express
#: together (wafer diameter and defect density are registry axes).
ACCEPTANCE_SPEC = {
    "name": "wafer-defect-lifetime",
    "testcases": ["emr-2chiplet"],
    "wafer_diameter_mm": [300.0, 450.0],
    "defect_density_scale": [1.0, 1.5],
    "lifetimes": [2.0, 6.0],
}


@pytest.fixture(scope="module")
def serial_records():
    return reference_records(SweepSpec.from_dict(ACCEPTANCE_SPEC))


class TestAcceptanceGrid:
    def test_grid_shape(self, serial_records):
        assert len(serial_records) == 8
        combos = {
            (record["overrides"], record["lifetime_years"])
            for record in serial_records
        }
        assert len(combos) == 8

    def test_batch_jobs1_bit_identical(self, serial_records):
        records = Session(jobs=1).sweep(ACCEPTANCE_SPEC).records
        assert list(records) == list(serial_records)

    def test_scalar_jobs4_bit_identical(self, serial_records):
        # The deprecated backend="scalar" still runs the one engine.
        with pytest.warns(DeprecationWarning):
            session = Session(jobs=4, backend="scalar")
        records = session.sweep(ACCEPTANCE_SPEC).records
        assert list(records) == list(serial_records)

    def test_batch_jobs4_bit_identical(self, serial_records):
        records = Session(jobs=4).sweep(ACCEPTANCE_SPEC).records
        assert list(records) == list(serial_records)

    def test_every_axis_changes_the_result(self, serial_records):
        """Each knob must actually move a metric (no silently ignored axis)."""
        by_key = {}
        for record in serial_records:
            overrides = json.loads(record["overrides"])
            key = (
                overrides["wafer_diameter_mm"],
                overrides["defect_density_scale"],
                record["lifetime_years"],
            )
            by_key[key] = record
        base = by_key[(450.0, 1.0, 2.0)]
        assert by_key[(300.0, 1.0, 2.0)]["manufacturing_carbon_g"] != (
            base["manufacturing_carbon_g"]
        )
        assert by_key[(450.0, 1.5, 2.0)]["manufacturing_carbon_g"] > (
            base["manufacturing_carbon_g"]
        )
        assert by_key[(450.0, 1.0, 6.0)]["operational_carbon_g"] > (
            base["operational_carbon_g"]
        )

    def test_resume_is_idempotent_per_backend(self, tmp_path, serial_records):
        out = tmp_path / "resume.jsonl"
        session = Session(jobs=1)
        session.sweep(ACCEPTANCE_SPEC, out=out)
        resumed = session.sweep(ACCEPTANCE_SPEC, out=out, resume=True)
        assert resumed.summary.scenario_count == 0
        assert resumed.summary.skipped_count == len(serial_records)
        assert list(resumed.records) == list(serial_records)


class TestOutOfTreeAxis:
    """``examples/custom_axis.py`` sweeps with zero repro.sweep changes."""

    def _spec(self):
        return SweepSpec.from_dict(
            {
                "name": "custom-axis-grid",
                "testcases": ["emr-2chiplet"],
                "packaging": ["rdl_fanout"],
                "design_iterations": [50, 200],
                "lifetimes": [2.0, 6.0],
            }
        )

    def test_axis_is_registered_and_recorded_for_workers(self, custom_axis):
        from repro.axes import get_axis
        from repro.packaging.registry import plugin_modules

        axis = get_axis("design_iterations")
        assert axis.target == "system"
        recorded = dict(plugin_modules())
        assert "custom_axis_example" in recorded
        assert recorded["custom_axis_example"] == custom_axis.__file__

    def test_spec_key_resolves_through_the_registry(self, custom_axis):
        scenarios = self._spec().expand()
        assert len(scenarios) == 4
        iterations = {
            json.loads(s.to_record()["overrides"])["design_iterations"]
            for s in scenarios
        }
        assert iterations == {50, 200}

    def test_value_actually_changes_the_design_cfp(self, custom_axis):
        records = list(SweepEngine(jobs=1).iter_records(self._spec().expand()))
        by_iterations = {}
        for record in records:
            key = json.loads(record["overrides"])["design_iterations"]
            by_iterations.setdefault(key, record)
        assert by_iterations[200]["design_carbon_g"] > (
            by_iterations[50]["design_carbon_g"]
        )

    def test_scalar_batch_and_parallel_bit_identical(self, custom_axis):
        scenarios = self._spec().expand()
        serial = reference_records(scenarios)
        batch = list(SweepEngine(jobs=1).iter_records(scenarios))
        assert batch == serial
        parallel = list(SweepEngine(jobs=2).iter_records(scenarios))
        assert parallel == serial

    def test_spawn_workers_reimport_the_axis_plugin(self, custom_axis):
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        scenarios = self._spec().expand()
        serial = list(SweepEngine(jobs=1).iter_records(scenarios))
        spawned = list(
            SweepEngine(jobs=2, mp_context="spawn").iter_records(scenarios)
        )
        assert spawned == serial
