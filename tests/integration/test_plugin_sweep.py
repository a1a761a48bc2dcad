"""Regression tests: out-of-tree architectures in ``jobs>1`` sweeps.

Before the worker auto-import layer, a parallel sweep over a plugin
architecture only worked by accident of the ``fork`` start method (workers
inherited the parent's registry state); under ``spawn`` the workers raised
``unknown packaging type``.  These tests pin the supported behaviour: the
engine ships the registry's plugin-module snapshot through every pool
initializer, so a parameterised out-of-tree architecture sweeps correctly
with ``jobs=4`` under *any* start method, with records bit-identical to the
serial engine and to the scalar reference oracle
(:func:`repro.sweep.engine.reference_records`).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.packaging.registry import plugin_modules
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import SweepSpec


def _plugin_grid() -> SweepSpec:
    """A small parameterised grid over the out-of-tree architecture.

    Covers a per-architecture param axis (the tentpole acceptance shape)
    plus a built-in architecture, a carbon-source axis and a lifetime axis,
    so worker sharding crosses template boundaries.
    """
    return SweepSpec.from_dict(
        {
            "name": "plugin-grid",
            "testcases": ["emr-2chiplet"],
            "packaging": [
                {"type": "organic_bridge", "params": {"substrate_layers": [5, 7]}},
                "rdl_fanout",
            ],
            "carbon_sources": ["coal", "wind"],
            "lifetimes": [2, 6],
        }
    )


@pytest.fixture()
def plugin_scenarios(custom_packaging):
    return _plugin_grid().expand()


class TestPluginParallelSweep:
    """jobs=4 sweeps over an out-of-tree architecture."""

    def test_plugin_module_is_recorded_for_workers(self, custom_packaging):
        recorded = dict(plugin_modules())
        assert "custom_packaging_example" in recorded
        assert recorded["custom_packaging_example"] == custom_packaging.__file__

    def test_scalar_backend_jobs4_bit_identical(self, plugin_scenarios):
        oracle = reference_records(plugin_scenarios)
        parallel = list(SweepEngine(jobs=4).iter_records(plugin_scenarios))
        assert parallel == oracle
        assert any(r["packaging"] == "organic_bridge" for r in oracle)

    def test_batch_backend_jobs4_bit_identical(self, plugin_scenarios):
        serial = list(SweepEngine(jobs=1).iter_records(plugin_scenarios))
        parallel = list(SweepEngine(jobs=4).iter_records(plugin_scenarios))
        assert parallel == serial

    def test_param_axis_values_distinguish_records(self, plugin_scenarios):
        records = list(SweepEngine(jobs=4).iter_records(plugin_scenarios))
        params = {
            r["packaging_params"]
            for r in records
            if r["packaging"] == "organic_bridge"
        }
        assert params == {
            '{"substrate_layers": 5}',
            '{"substrate_layers": 7}',
        }


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)
class TestPluginSpawnWorkers:
    """The hard case: spawn workers start with a pristine registry.

    The plugin module is not importable by name in the worker (it was
    loaded from a file path outside ``sys.path``), so this exercises the
    initializer's source-file fallback end to end.
    """

    def test_scalar_backend_spawn_jobs4(self, plugin_scenarios):
        oracle = reference_records(plugin_scenarios)
        parallel = list(
            SweepEngine(jobs=4, mp_context="spawn").iter_records(plugin_scenarios)
        )
        assert parallel == oracle

    def test_batch_backend_spawn_jobs4(self, plugin_scenarios):
        serial = list(SweepEngine(jobs=1).iter_records(plugin_scenarios))
        parallel = list(
            SweepEngine(jobs=4, mp_context="spawn").iter_records(plugin_scenarios)
        )
        assert parallel == serial


class TestEngineMpContextValidation:
    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError, match="start method"):
            SweepEngine(jobs=2, mp_context="warp")
