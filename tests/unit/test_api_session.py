"""Unit tests of the :class:`repro.api.Session` facade."""

from __future__ import annotations

import json
import warnings

import pytest

from repro import EcoChip, EstimatorConfig, Session
from repro.api import ExploreResult, SweepResult
from repro.sweep.store import load_records
from repro.testcases.registry import get_testcase

SMALL_SPEC = {
    "name": "session-grid",
    "testcases": ["emr-2chiplet"],
    "lifetimes": [2.0, 6.0],
    "wafer_diameter_mm": [300.0, 450.0],
}


class TestArgumentValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            Session(jobs=0)

    def test_backend_must_be_known(self):
        with pytest.raises(ValueError, match="backend"):
            Session(backend="warp")

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_backend_is_deprecated_and_ignored(self, backend):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = Session(backend=backend)
        deprecations = [w for w in caught if w.category is DeprecationWarning]
        # Only the retired "scalar" value warns; "batch" names the one engine.
        assert len(deprecations) == (1 if backend == "scalar" else 0)
        assert list(session.sweep(SMALL_SPEC).records) == list(
            Session().sweep(SMALL_SPEC).records
        )

    def test_mp_context_must_be_known(self):
        with pytest.raises(ValueError, match="start method"):
            Session(mp_context="thread")

    def test_config_must_be_an_estimator_config(self):
        with pytest.raises(TypeError, match="EstimatorConfig"):
            Session(config={"fab_carbon_source": "coal"})

    def test_sweep_requires_exactly_one_source(self, tmp_path):
        session = Session()
        with pytest.raises(ValueError, match="exactly one"):
            session.sweep()
        with pytest.raises(ValueError, match="exactly one"):
            session.sweep(SMALL_SPEC, preset="ga102-quick")

    def test_sweep_resume_requires_out(self):
        with pytest.raises(ValueError, match="resume"):
            Session().sweep(SMALL_SPEC, resume=True)

    def test_sweep_rejects_non_spec_objects(self):
        with pytest.raises(TypeError, match="SweepSpec"):
            Session().sweep(spec=42)

    def test_estimate_rejects_unknown_override_axes(self):
        with pytest.raises(KeyError, match="unknown axis"):
            Session().estimate("emr-2chiplet", overrides={"bogus": 1})

    def test_estimate_rejects_bad_override_values(self):
        with pytest.raises(ValueError, match="duty"):
            Session().estimate("emr-2chiplet", overrides={"duty_cycle": 2.0})

    def test_unknown_testcase_name(self):
        with pytest.raises(KeyError, match="testcase"):
            Session().estimate("no-such-testcase")

    def test_system_rejects_other_types(self):
        with pytest.raises(TypeError, match="ChipletSystem"):
            Session().system(42)

    def test_explore_requires_objectives(self):
        with pytest.raises(ValueError, match="objective"):
            Session().explore("emr-2chiplet", [7, 14], objectives=())


class TestEstimate:
    def test_matches_the_raw_estimator(self):
        report = Session().estimate("emr-2chiplet")
        expected = EcoChip().estimate(get_testcase("emr-2chiplet"))
        assert report.total_cfp_g == expected.total_cfp_g

    def test_overrides_match_a_manually_built_config(self):
        report = Session().estimate(
            "emr-2chiplet", overrides={"wafer_diameter_mm": 300.0}
        )
        expected = EcoChip(
            config=EstimatorConfig(wafer_diameter_mm=300.0)
        ).estimate(get_testcase("emr-2chiplet"))
        assert report.total_cfp_g == expected.total_cfp_g
        assert report.total_cfp_g != Session().estimate("emr-2chiplet").total_cfp_g

    def test_fab_source_triple_override(self):
        report = Session().estimate("emr-2chiplet", fab_source="wind")
        expected = EcoChip(
            config=EstimatorConfig(
                fab_carbon_source="wind",
                package_carbon_source="wind",
                design_carbon_source="wind",
            )
        ).estimate(get_testcase("emr-2chiplet"))
        assert report.total_cfp_g == expected.total_cfp_g

    def test_accepts_prebuilt_systems(self):
        system = get_testcase("emr-2chiplet")
        assert Session().estimate(system).total_cfp_g == (
            EcoChip().estimate(system).total_cfp_g
        )


class TestSweep:
    def test_returns_typed_result_with_records(self):
        result = Session().sweep(SMALL_SPEC)
        assert isinstance(result, SweepResult)
        assert len(result.records) == 4
        assert result.summary.scenario_count == 4
        assert result.best == min(
            result.records, key=lambda r: r["total_carbon_g"]
        )
        assert result.spec.name == "session-grid"

    def test_collect_records_false_streams_only(self, tmp_path):
        out = tmp_path / "r.jsonl"
        result = Session().sweep(SMALL_SPEC, out=out, collect_records=False)
        assert result.records == ()
        assert len(load_records(out)) == 4

    def test_sweep_hands_the_engine_the_spec_unexpanded(self, tmp_path, monkeypatch):
        # A sweep, fresh or resumed, through a shared estimator (as serve
        # runs it) never materialises one Scenario per row.
        from repro.fastpath import BatchEstimator
        from repro.sweep.spec import SweepSpec

        def no_expand(self):
            raise AssertionError("Session.sweep expanded the spec")

        monkeypatch.setattr(SweepSpec, "expand", no_expand)
        session = Session(batch_estimator=BatchEstimator())
        out = tmp_path / "r.jsonl"
        first = session.sweep(SMALL_SPEC, out=out, collect_records=False)
        again = session.sweep(SMALL_SPEC, out=out, resume=True)
        assert first.summary.scenario_count == 4
        assert again.summary.skipped_count == 4
        assert len(load_records(out)) == 4

    def test_resume_skips_completed_scenarios(self, tmp_path):
        out = tmp_path / "r.jsonl"
        session = Session()
        first = session.sweep(SMALL_SPEC, out=out)
        again = session.sweep(SMALL_SPEC, out=out, resume=True)
        assert again.summary.scenario_count == 0
        assert again.summary.skipped_count == 4
        assert list(again.records) == list(first.records)

    def test_on_block_sees_stored_rows_first_then_new_ones(self, tmp_path):
        out = tmp_path / "r.jsonl"
        session = Session()
        session.sweep(SMALL_SPEC, out=out)
        grown = dict(SMALL_SPEC, nodes=[7, 10, 14])
        seen = []
        resumed = session.sweep(
            grown, out=out, resume=True, collect_records=False,
            on_block=lambda block: seen.append([r["scenario"] for r in block.records()]),
        )
        assert resumed.records == ()
        stored = [r["scenario"] for r in load_records(out)][:4]
        assert seen[:4] == [[scenario] for scenario in stored]  # one-row blocks
        new = [scenario for block in seen[4:] for scenario in block]
        assert sorted(stored + new) == list(range(resumed.spec.count()))
        assert resumed.summary.scenario_count == len(new)

    @pytest.mark.parametrize("stored_cost", [False, True])
    def test_resume_with_the_other_cost_setting_fails_before_any_row(
        self, tmp_path, stored_cost
    ):
        out = tmp_path / "r.jsonl"
        spec = dict(SMALL_SPEC, nodes=[7, 10, 14])
        Session(include_cost=stored_cost).sweep(SMALL_SPEC, out=out)
        before = out.read_bytes()
        with pytest.raises(ValueError, match="cost_usd"):
            Session(include_cost=not stored_cost).sweep(spec, out=out, resume=True)
        assert out.read_bytes() == before
        resumed = Session(include_cost=stored_cost).sweep(spec, out=out, resume=True)
        assert resumed.summary.skipped_count == 4
        assert all(("cost_usd" in r) == stored_cost for r in load_records(out))

    def test_resume_of_a_row_without_a_metric_fails_before_any_row(self, tmp_path):
        out = tmp_path / "r.jsonl"
        Session().sweep(SMALL_SPEC, out=out)
        lines = out.read_text().splitlines()
        stored = json.loads(lines[0])
        del stored["power_w"]
        out.write_text("\n".join([json.dumps(stored, sort_keys=True)] + lines[1:]) + "\n")
        before = out.read_bytes()
        with pytest.raises(ValueError, match=r"stored scenario 0 lacks the metric columns \['power_w'\]"):
            Session().sweep(dict(SMALL_SPEC, nodes=[7, 10, 14]), out=out, resume=True)
        assert out.read_bytes() == before

    def test_pareto_rows_from_records(self):
        result = Session().sweep(SMALL_SPEC)
        front = result.pareto(["total_carbon_g", "power_w"])
        assert 1 <= len(front) <= len(result.records)

    def test_pareto_forwards_on_nan(self):
        result = Session().sweep(SMALL_SPEC)
        records = [dict(r) for r in result.records]
        records[0]["power_w"] = float("nan")
        poisoned = SweepResult(
            spec=result.spec, summary=result.summary, records=tuple(records)
        )
        with pytest.raises(ValueError, match="NaN"):
            poisoned.pareto(["total_carbon_g", "power_w"], on_nan="raise")
        with pytest.warns(RuntimeWarning, match="NaN"):
            front = poisoned.pareto(["total_carbon_g", "power_w"])
        assert all(row.record["power_w"] == row.record["power_w"] for row in front)

    def test_preset_and_spec_file_sources(self, tmp_path):
        import json

        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        by_dict = Session().sweep(SMALL_SPEC)
        by_file = Session().sweep(spec_file=spec_path)
        assert list(by_dict.records) == list(by_file.records)


class TestSweepRecords:
    """``SweepResult.records`` is a read-only view over the engine's blocks."""

    #: Several template groups of several rows each.
    SPEC = {
        "testcases": ["emr-2chiplet"],
        "nodes": [7, 14],
        "packaging": ["rdl_fanout", "silicon_bridge"],
        "lifetimes": [2.0, 6.0],
        "system_volumes": [1000, 100000],
    }

    @staticmethod
    def oracle():
        from repro.sweep.engine import reference_records
        from repro.sweep.spec import SweepSpec

        return reference_records(SweepSpec.from_dict(TestSweepRecords.SPEC))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_equal_the_oracle(self, jobs):
        from repro.sweep.block import RecordSequence

        records = Session(jobs=jobs, mp_context="fork").sweep(self.SPEC).records
        expected = self.oracle()
        assert isinstance(records, RecordSequence)
        assert records == tuple(expected)
        assert list(records) == expected
        assert [records[i] for i in range(-len(expected), 0)] == expected
        assert list(records[3:11:2]) == expected[3:11:2]

    def test_resumed_records_equal_the_oracle(self, tmp_path):
        out = tmp_path / "r.jsonl"
        Session().sweep(self.SPEC, out=out, collect_records=False)
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:5]))
        result = Session().sweep(self.SPEC, out=out, resume=True)
        assert result.summary.skipped_count == 5
        assert result.records == tuple(self.oracle())

    def test_each_read_builds_a_fresh_record(self):
        records = Session().sweep(self.SPEC).records
        first = records[0]
        first["total_carbon_g"] = -1.0
        first["nodes"].append(3.0)
        assert records[0] == self.oracle()[0]
        assert records[0] is not records[0]

    def test_untabulated_node_raises_before_the_store_opens(self, tmp_path):
        out = tmp_path / "r.jsonl"
        with pytest.raises(ValueError, match="node 2.0 is not in the technology table"):
            Session().sweep({"testcases": ["emr-2chiplet"], "nodes": [2, 7]}, out=out)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_node_registered_in_the_session_table_sweeps(self, jobs):
        import dataclasses as dc

        from repro.sweep.engine import reference_records
        from repro.sweep.spec import SweepSpec
        from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, TechnologyTable

        two_nm = dc.replace(DEFAULT_TECHNOLOGY_TABLE.get(3), feature_nm=2.0)
        custom = TechnologyTable(list(DEFAULT_TECHNOLOGY_TABLE) + [two_nm])
        spec = {"testcases": ["emr-2chiplet"], "nodes": [2, 7]}
        result = Session(table=custom, jobs=jobs, mp_context="fork").sweep(spec)
        assert result.records == tuple(
            reference_records(SweepSpec.from_dict(spec), table=custom)
        )


class TestCustomTable:
    def test_sweep_honours_the_session_table_on_both_backends(self):
        import dataclasses as dc

        from repro.sweep.engine import reference_records
        from repro.sweep.spec import SweepSpec
        from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, TechnologyTable

        custom = TechnologyTable(
            nodes=[
                dc.replace(n, defect_density_per_cm2=n.defect_density_per_cm2 * 3.0)
                for n in DEFAULT_TECHNOLOGY_TABLE
            ]
        )
        spec = {"testcases": ["emr-2chiplet"]}
        expected = Session(table=custom).estimate("emr-2chiplet").total_cfp_g
        [oracle] = reference_records(SweepSpec.from_dict(spec), table=custom)
        scalar = oracle["total_carbon_g"]
        batch = Session(table=custom).sweep(spec).best["total_carbon_g"]
        assert scalar == expected == batch
        assert scalar != Session().sweep(spec).best["total_carbon_g"]


class TestExplore:
    def test_explore_accepts_axis_overrides(self):
        base = Session().explore("emr-2chiplet", [7], objectives=["total_carbon_g"])
        overridden = Session().explore(
            "emr-2chiplet", [7],
            objectives=["total_carbon_g"],
            overrides={"wafer_diameter_mm": 300.0},
        )
        assert overridden.best.objective("total_carbon_g") != (
            base.best.objective("total_carbon_g")
        )
        with pytest.raises(KeyError, match="unknown axis"):
            Session().explore("emr-2chiplet", [7], overrides={"bogus": 1})

    def test_typed_explore_result(self):
        result = Session().explore(
            "emr-2chiplet", [7, 14],
            packaging=["rdl_fanout", {"type": "silicon_bridge"}],
            objectives=["total_carbon_g", "power_w"],
        )
        assert isinstance(result, ExploreResult)
        assert len(result.points) == 8  # 2^2 node configs x 2 packagings
        assert all(any(p is q for q in result.points) for p in result.front)
        assert result.best in result.points
        assert result.best.objective("total_carbon_g") == min(
            p.objective("total_carbon_g") for p in result.points
        )


    def test_packaging_params_candidates_get_their_own_labels(self):
        result = Session().explore(
            "emr-2chiplet", [7, 14],
            packaging=[{"type": "silicon_bridge", "params": {"bridge_range_mm": [2, 4]}}],
        )
        labels = [point.label for point in result.points]
        assert len(labels) == 8  # 2^2 node configs x 2 bridge ranges
        assert len(set(labels)) == 8
        assert '(7,7)/silicon_bridge/{"bridge_range_mm": 4}' in labels


class _TiedPoint:
    """Stub design point: one objective value plus a label."""

    def __init__(self, label, value):
        self.label = label
        self.value = value

    def objective(self, name):
        return self.value


class TestExploreResultTieBreaking:
    def test_best_resolves_objective_ties_by_label(self):
        # Regression: equal-valued candidates used to resolve by input
        # order, so the winner depended on enumeration order.
        tied = (_TiedPoint("z", 3.0), _TiedPoint("a", 3.0), _TiedPoint("m", 4.0))
        for points in (tied, tuple(reversed(tied))):
            result = ExploreResult(
                points=points, front=points, objectives=("total_carbon_g",)
            )
            assert result.best.label == "a"


class TestSearchFacade:
    """`Session.search` argument plumbing (behaviour lives in test_search)."""

    def test_requires_exactly_one_source(self, tmp_path):
        session = Session()
        with pytest.raises(ValueError, match="exactly one"):
            session.search()
        with pytest.raises(ValueError, match="exactly one"):
            session.search({"space": SMALL_SPEC}, spec_file=tmp_path / "s.json")

    def test_resume_requires_out(self):
        with pytest.raises(ValueError, match="resume"):
            Session().search({"space": SMALL_SPEC}, resume=True)

    def test_rejects_non_spec_objects(self):
        with pytest.raises(TypeError, match="SearchSpec"):
            Session().search(spec=42)

    def test_spec_dict_and_file_agree(self, tmp_path):
        import json

        from repro import SearchResult

        config = {"space": SMALL_SPEC, "budget": 4, "strategy": "random", "seed": 3}
        spec_path = tmp_path / "search.json"
        spec_path.write_text(json.dumps(config))
        by_dict = Session().search(config)
        by_file = Session().search(spec_file=spec_path)
        assert isinstance(by_dict, SearchResult)
        assert by_dict.best == by_file.best
        assert by_dict.rounds == by_file.rounds

    def test_exhaustive_budget_finds_the_sweep_optimum(self):
        session = Session()
        sweep = session.sweep(SMALL_SPEC)
        search = session.search(
            {"space": SMALL_SPEC, "budget": 64, "strategy": "random"}
        )
        assert search.evaluations == len(sweep.records)
        best = dict(search.best)
        assert best.pop("search_round") >= 0
        assert best == min(
            sweep.records, key=lambda r: (r["total_carbon_g"], r["scenario"])
        )
