"""Unit tests for repro.sweep.engine (serial path, reference oracle, sharding)."""

from __future__ import annotations

import pytest

from repro.core.estimator import EcoChip, EstimatorConfig
from repro.sweep.engine import (
    NUMERIC_COLUMNS,
    SweepEngine,
    make_record,
    reference_records,
    shard,
)
from repro.sweep.spec import Scenario, SweepSpec
from repro.sweep.store import JsonlResultStore
from repro.testcases import ga102

QUICK = SweepSpec.preset("ga102-quick")


class TestSerialEngine:
    def test_run_counts_and_best(self, tmp_path):
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(tmp_path / "out.jsonl") as store:
            summary = engine.run(QUICK, store=store)
        assert summary.scenario_count == QUICK.count()
        assert summary.jobs == 1
        assert summary.store_path == str(tmp_path / "out.jsonl")
        assert summary.best is not None
        assert summary.best["total_carbon_g"] > 0
        assert store.count == summary.scenario_count

    def test_numeric_columns_are_the_records_numeric_values(self):
        # The names eco-chip sweep --pareto accepts, in record order.
        [record] = reference_records(QUICK.expand()[:1])
        numeric = [
            key
            for key, value in record.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        assert tuple(numeric) == NUMERIC_COLUMNS

    def test_reference_oracle_omits_cost_on_request(self):
        [record] = reference_records(QUICK.expand()[:1], include_cost=False)
        assert "cost_usd" not in record

    def test_memoisation_does_not_change_results(self):
        # The engine memoises compiled templates; a warm shared estimator
        # must reproduce a cold run exactly.
        from repro.fastpath import BatchEstimator

        warm = SweepEngine(jobs=1, batch_estimator=BatchEstimator())
        first = list(warm.iter_records(QUICK))
        second = list(warm.iter_records(QUICK))
        assert warm.batch_estimator.cache_stats()["template_hits"] > 0
        assert first == second == list(SweepEngine(jobs=1).iter_records(QUICK))

    def test_records_match_direct_estimation(self):
        scenario = Scenario(
            index=0, base_kind="testcase", base_ref="ga102-3chiplet", nodes=(7.0, 14.0, 10.0)
        )
        [record] = list(SweepEngine(jobs=1).iter_records([scenario]))
        direct = EcoChip().estimate(ga102.three_chiplet((7, 14, 10)))
        assert record["total_carbon_g"] == direct.total_cfp_g
        assert record["embodied_carbon_g"] == direct.embodied_cfp_g
        assert record["silicon_area_mm2"] == direct.total_silicon_area_mm2

    def test_fab_source_override_matches_configured_estimator(self):
        scenario = Scenario(
            index=0, base_kind="testcase", base_ref="ga102-3chiplet", fab_source="wind"
        )
        [record] = list(SweepEngine(jobs=1).iter_records([scenario]))
        config = EstimatorConfig(
            fab_carbon_source="wind", package_carbon_source="wind", design_carbon_source="wind"
        )
        from repro.testcases.registry import get_testcase

        direct = EcoChip(config=config).estimate(get_testcase("ga102-3chiplet"))
        assert record["total_carbon_g"] == direct.total_cfp_g
        assert record["fab_source"] == "wind"

    def test_progress_callback(self):
        calls = []
        SweepEngine(jobs=1).run(QUICK, progress=lambda done, total: calls.append((done, total)))
        total = QUICK.count()
        assert calls == [(i, total) for i in range(1, total + 1)]

    def test_empty_scenario_list(self):
        summary = SweepEngine(jobs=1).run([])
        assert summary.scenario_count == 0
        assert summary.best is None

    def test_record_metric_keys_match_objectives(self):
        from repro.core.explorer import OBJECTIVES

        [record] = list(
            SweepEngine(jobs=1).iter_records(
                [Scenario(index=0, base_kind="testcase", base_ref="ga102-3chiplet")]
            )
        )
        for name in OBJECTIVES:
            assert name in record, f"record is missing objective field {name}"


class TestValidation:
    def test_invalid_jobs_and_chunk_size(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)
        with pytest.raises(ValueError):
            shard([1, 2, 3], 0)

    def test_shard_covers_all_items_in_order(self):
        chunks = shard(list(range(10)), 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_make_record_round_trips_scenario_fields(self, estimator, ga102_3chiplet):
        scenario = Scenario(
            index=7, base_kind="testcase", base_ref="ga102-3chiplet", fab_source="coal"
        )
        report = estimator.estimate(ga102_3chiplet)
        record = make_record(scenario, ga102_3chiplet, report, "coal")
        assert record["scenario"] == 7
        assert record["packaging"] == report.packaging.architecture
        assert record["lifetime_years"] == report.operational.lifetime_years
