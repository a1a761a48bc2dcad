"""Property-based parity and resume-idempotence of the sweep subsystem.

Seeded random :class:`~repro.sweep.spec.SweepSpec` grids — random axis
subsets, per-architecture packaging params, monolithic bases — must satisfy
the engine's two core contracts for *every* spec, not just the shipped
presets:

* **oracle parity** — the engine's records equal
  :func:`~repro.sweep.engine.reference_records` (the serial scalar
  ``EcoChip.estimate`` pipeline) under ``==`` (exact float equality, same
  keys, same order) and serialise to the same JSON text;
* **resume idempotence** — re-running a sweep against a store that already
  holds a prefix of its records computes exactly the missing tail, and
  resuming a *complete* store computes nothing and changes nothing;
* **template groups** — a spec's :meth:`~SweepSpec.template_groups`
  flatten to :meth:`~SweepSpec.expand` and to
  :class:`~repro.search.space.GridSpace`, and the engine writes the same
  store bytes from the spec as from its expanded list, at ``jobs`` 1 and 2,
  fresh and resumed from a store cut mid-line.

Grids are kept small (≤ ~128 scenarios) so the whole suite stays CI-cheap;
the deterministic ``ci`` hypothesis profile (see ``conftest.py``) makes the
drawn grids reproducible run to run.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.search.space import GridSpace
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore, completed_scenario_ids, load_records

#: chiplet counts of the base systems the strategy draws from.
_TESTCASES = {"emr-2chiplet": 2, "ga102-3chiplet": 3}

#: Packaging axis entries, including parameterised and monolithic ones.
_PACKAGING_OPTIONS = (
    {"type": "monolithic"},
    {"type": "rdl_fanout"},
    {"type": "rdl_fanout", "params": {"layers": [4, 6]}},
    {"type": "silicon_bridge", "params": {"bridge_range_mm": [2.0, 4.0]}},
    {"type": "passive_interposer"},
    {"type": "3d", "params": {"bond_type": ["microbump", "hybrid"]}},
)

#: Built-in registered-axis override options (repro.axes): one value list
#: per axis, covering both config-target knobs (wafer diameter, defect
#: density, router spec — these fork estimator configs and batch template
#: compilers) and system-target knobs (operating-spec fields).
_OVERRIDE_OPTIONS = (
    ("wafer_diameter_mm", [300.0, 450.0]),
    ("defect_density_scale", [1.0, 1.6]),
    ("router_spec", [{"ports": 5}, {"ports": 8, "virtual_channels": 2}]),
    ("operating_power_w", [25.0]),
    ("duty_cycle", [0.1, 0.3]),
    ("use_carbon_source", ["grid_world", "wind"]),
)


@st.composite
def sweep_specs(draw) -> SweepSpec:
    """A random small-but-representative sweep spec."""
    testcase = draw(st.sampled_from(sorted(_TESTCASES)))
    chiplets = _TESTCASES[testcase]
    node_configs = draw(
        st.lists(
            st.tuples(*[st.sampled_from([7.0, 10.0, 14.0])] * chiplets),
            min_size=0,
            max_size=2,
            unique=True,
        )
    )
    packaging_indices = draw(
        st.lists(
            st.sampled_from(range(len(_PACKAGING_OPTIONS))),
            min_size=0,
            max_size=2,
            unique=True,
        )
    )
    packaging = [dict(_PACKAGING_OPTIONS[i]) for i in packaging_indices]
    carbon_sources = draw(st.sampled_from([(), ("coal",), ("coal", "solar")]))
    lifetimes = draw(st.sampled_from([(), (2.0, 6.0)]))
    system_volumes = draw(st.sampled_from([(), (1e5, 1e7)]))
    # Up to two registered-axis overrides (kept small so the cartesian
    # grid stays CI-cheap) drawn from the built-in axis catalogue.
    override_indices = draw(
        st.lists(
            st.sampled_from(range(len(_OVERRIDE_OPTIONS))),
            min_size=0,
            max_size=2,
            unique=True,
        )
    )
    config = {
        "name": "property-grid",
        "testcases": [testcase],
        "node_configs": [list(config) for config in node_configs],
        "packaging": packaging,
        "carbon_sources": list(carbon_sources),
        "lifetimes": list(lifetimes),
        "system_volumes": list(system_volumes),
    }
    for index in override_indices:
        name, values = _OVERRIDE_OPTIONS[index]
        config[name] = list(values)
    return SweepSpec.from_dict(config)


class TestBackendParity:
    @given(spec=sweep_specs())
    @settings(max_examples=8)
    def test_scalar_and_batch_records_are_bit_identical(self, spec):
        scenarios = spec.expand()
        assert len(scenarios) == spec.count()
        scalar = reference_records(scenarios)
        batch = list(SweepEngine(jobs=1).iter_records(scenarios))
        assert scalar == batch
        assert [json.dumps(r, sort_keys=True) for r in scalar] == [
            json.dumps(r, sort_keys=True) for r in batch
        ]

    @given(spec=sweep_specs())
    @settings(max_examples=4)
    def test_grid_indices_are_stable_and_dense(self, spec):
        scenarios = spec.expand()
        assert [s.index for s in scenarios] == list(range(len(scenarios)))


class TestResumeIdempotence:
    @given(spec=sweep_specs(), cut_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=8)
    def test_resuming_a_prefix_reproduces_the_full_run(self, spec, cut_fraction):
        scenarios = spec.expand()
        engine = SweepEngine(jobs=1)
        full = list(engine.iter_records(scenarios))
        cut = int(len(full) * cut_fraction)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "partial.jsonl"
            with ResultStore(path) as store:
                for record in full[:cut]:
                    store.append(record)
            with ResultStore(path, append=True) as store:
                summary = engine.run(scenarios, store=store, resume=store)
            assert summary.skipped_count == cut
            assert summary.scenario_count == len(full) - cut
            assert load_records(path) == full

    @given(spec=sweep_specs())
    @settings(max_examples=4)
    def test_resuming_a_complete_store_is_a_no_op(self, spec):
        scenarios = spec.expand()
        engine = SweepEngine(jobs=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "done.jsonl"
            with ResultStore(path) as store:
                engine.run(scenarios, store=store)
            before = load_records(path)
            with ResultStore(path, append=True) as store:
                summary = engine.run(scenarios, store=store, resume=store)
            assert summary.scenario_count == 0
            assert summary.skipped_count == len(scenarios)
            assert load_records(path) == before


class TestSessionResume:
    @given(
        spec=sweep_specs(),
        cut_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=10)
    def test_a_resumed_session_sweep_returns_the_uninterrupted_records(
        self, spec, cut_fraction
    ):
        with tempfile.TemporaryDirectory() as tmp:
            full_path = Path(tmp) / "full.jsonl"
            full = Session().sweep(spec, out=full_path)
            path = Path(tmp) / "cut.jsonl"
            data = full_path.read_bytes()
            path.write_bytes(data[: int(len(data) * cut_fraction)])
            stored = len(completed_scenario_ids(path))
            seen = []
            resumed = Session().sweep(
                spec,
                out=path,
                resume=True,
                on_block=lambda block: seen.extend(block.records()),
            )
            assert resumed.summary.skipped_count == stored
            assert resumed.summary.scenario_count == len(full.records) - stored
            assert resumed.records == full.records
            # Every stored row once, first and in store order, then the new rows.
            assert seen == list(full.records)
            assert path.read_bytes() == full_path.read_bytes()
            assert resumed.best == full.best


@st.composite
def grid_specs(draw) -> SweepSpec:
    """:func:`sweep_specs`, or the same axes over mix-and-match ``nodes``
    (then sometimes with a second, 2-chiplet base)."""
    spec = draw(sweep_specs())
    if draw(st.booleans()):
        nodes = draw(
            st.lists(st.sampled_from([7.0, 10.0, 14.0]), min_size=1, max_size=2, unique=True)
        )
        testcases = draw(
            st.sampled_from([spec.testcases, tuple(sorted({*spec.testcases, "emr-2chiplet"}))])
        )
        spec = dataclasses.replace(
            spec, testcases=testcases, nodes=tuple(nodes), node_configs=()
        )
    return spec


class TestTemplateGroups:
    @given(spec=grid_specs())
    @settings(max_examples=12)
    def test_groups_flatten_to_expand_and_the_grid_space(self, spec):
        groups = list(spec.template_groups())
        expanded = spec.expand()
        space = GridSpace(spec)
        decoded = [space.scenario(index) for index in range(space.size)]
        flat = [scenario for group in groups for scenario in group.scenarios()]
        assert flat == expanded == decoded
        assert [row[0] for group in groups for row in group.rows] == list(
            range(spec.count())
        )
        start = 0
        for group in groups:
            assert group.row_dicts is None
            stop = start + len(group.rows)
            for source in (flat, expanded, decoded):
                members = source[start:stop]
                assert {id(s.packaging) for s in members} == {id(members[0].packaging)}
                assert {id(s.overrides) for s in members} == {id(members[0].overrides)}
                assert all(
                    (s.base_kind, s.base_ref, s.nodes, s.packaging, s.overrides)
                    == group[:5]
                    for s in members
                )
            start = stop

    @given(spec=grid_specs(), cut_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=8)
    def test_spec_and_list_runs_write_identical_stores(self, spec, cut_fraction):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.jsonl"
            reference = None
            for jobs in (1, 2):
                engine = SweepEngine(jobs=jobs, mp_context="fork")
                for sweep in (spec, spec.expand()):
                    path.unlink(missing_ok=True)
                    with ResultStore(path) as store:
                        engine.run(sweep, store=store)
                    if reference is None:
                        reference = path.read_bytes()
                        # Usually mid-line: the resume repairs a torn tail.
                        cut = reference[: int(len(reference) * cut_fraction)]
                    assert path.read_bytes() == reference
                    path.write_bytes(cut)
                    with ResultStore(path, append=True) as store:
                        engine.run(sweep, store=store, resume=store)
                    assert path.read_bytes() == reference
