"""``Session.explore`` is a sweep: its rows are the sweep oracle's records.

Each case names an explore call and the :class:`SweepSpec` dictionary it
stands for.  At ``jobs=1`` and ``jobs=2`` the explore rows must equal
:func:`repro.sweep.engine.reference_records` of that spec bit for bit, and
every front row's total must equal :meth:`Session.estimate` of the
candidate system it describes.
"""

from __future__ import annotations

import json

import pytest

from repro import Session
from repro.io.loaders import load_design_directory
from repro.packaging.registry import spec_from_dict
from repro.sweep.engine import reference_records
from repro.sweep.spec import SweepSpec
from repro.testcases.registry import get_testcase

ARCHITECTURE = {
    "name": "toy-soc",
    "packaging": {"type": "rdl_fanout", "layers": 5, "technology_nm": 65},
    "chiplets": [
        {"name": "digital", "type": "logic", "node": 7, "area_mm2": 120.0},
        {"name": "memory", "type": "memory", "node": 10, "area_mm2": 60.0},
    ],
}

BRIDGE_PARAMS = {"type": "silicon_bridge", "params": {"bridge_range_mm": [2, 4]}}

#: ``(explore keyword arguments, equivalent sweep-spec axes)``; ``system``
#: is a testcase name or ``"<design dir>"``.
CASES = {
    "testcase-packaging": (
        {"system": "emr-2chiplet", "packaging": ["rdl_fanout", {"type": "silicon_bridge"}]},
        {"testcases": ["emr-2chiplet"], "packaging": ["rdl_fanout", "silicon_bridge"]},
    ),
    "design-dir": (
        {"system": "<design dir>"},
        {"design_dirs": ["<design dir>"]},
    ),
    "params-packaging": (
        {"system": "emr-2chiplet", "packaging": [BRIDGE_PARAMS, "3d"]},
        {"testcases": ["emr-2chiplet"], "packaging": [BRIDGE_PARAMS, "3d"]},
    ),
    "overrides": (
        {
            "system": "ga102-3chiplet",
            "packaging": ["rdl_fanout"],
            "overrides": {"wafer_diameter_mm": 300.0, "defect_density_scale": 1.5},
        },
        {
            "testcases": ["ga102-3chiplet"],
            "packaging": ["rdl_fanout"],
            "wafer_diameter_mm": [300.0],
            "defect_density_scale": [1.5],
        },
    ),
}


@pytest.fixture(scope="module")
def design_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("explore-design")
    (path / "architecture.json").write_text(json.dumps(ARCHITECTURE))
    return str(path)


def _resolve(value, design_dir):
    if value == "<design dir>":
        return design_dir
    if isinstance(value, list):
        return [_resolve(item, design_dir) for item in value]
    return value


def _candidate(record, base, repackaged):
    """The system a record describes: its base, nodes and packaging."""
    system = base.with_nodes(*record["nodes"])
    if repackaged:
        config = {"type": record["packaging"], **json.loads(record["packaging_params"] or "{}")}
        system = system.with_packaging(spec_from_dict(config))
    return system


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_explore_rows_are_the_oracle_records(case, jobs, design_dir):
    call, axes = CASES[case]
    system = _resolve(call["system"], design_dir)
    spec = SweepSpec.from_dict(
        {name: _resolve(values, design_dir) for name, values in axes.items()}
        | {"nodes": [7, 14]}
    )
    session = Session(jobs=jobs)
    result = session.explore(
        system,
        [7, 14],
        packaging=call.get("packaging"),
        overrides=call.get("overrides"),
        objectives=["total_carbon_g", "cost_usd"],
    )
    expected = reference_records(spec)
    assert [row.record for row in result.points] == expected
    assert len(result.points) == spec.count()

    base = (
        load_design_directory(system).system
        if system == design_dir
        else get_testcase(system)
    )
    assert result.front
    for row in result.front:
        report = session.estimate(
            _candidate(row.record, base, "packaging" in call), overrides=call.get("overrides")
        )
        assert row.objective("total_carbon_g") == report.total_cfp_g
