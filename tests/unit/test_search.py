"""Unit tests of repro.search: specs, strategies, context and runner."""

from __future__ import annotations

import json
import re

import pytest

from repro.search import (
    GridSpace,
    RandomStrategy,
    SearchConstraint,
    SearchContext,
    SearchObjective,
    SearchResult,
    SearchSpec,
    get_strategy,
    register_strategy,
    run_search,
    strategy_names,
)
from repro.search.spec import resolve_metric
from repro.search.strategies import _STRATEGIES
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec
from repro.sweep.store import load_records, records_by_scenario

SMALL_SPACE = {
    "name": "search-grid",
    "testcases": ["emr-2chiplet"],
    "nodes": [7, 10, 14],
    "lifetimes": [2.0, 4.0, 6.0],
}  # 3^2 node configs x 3 lifetimes = 27 points


def small_spec(**kwargs):
    config = dict(space=SMALL_SPACE, budget=12, batch_size=4, seed=1)
    config.update(kwargs)
    return SearchSpec(**config)


class TestMetricResolution:
    def test_aliases_resolve_to_record_columns(self):
        assert resolve_metric("carbon") == "total_carbon_g"
        assert resolve_metric("cfp_total") == "total_carbon_g"
        assert resolve_metric("area") == "silicon_area_mm2"
        assert resolve_metric("cost") == "cost_usd"
        assert resolve_metric("power_w") == "power_w"
        # Every record metric column is a search metric.
        assert resolve_metric("design_carbon_g") == "design_carbon_g"
        assert resolve_metric("hi_carbon_g") == "hi_carbon_g"

    def test_unknown_metric_lists_known_names(self):
        with pytest.raises(KeyError, match="known metrics"):
            resolve_metric("coolness")


class TestSearchObjective:
    def test_term_applies_weight_and_exponent(self):
        objective = SearchObjective("carbon", weight=2.0, exponent=3.0)
        assert objective.metric == "total_carbon_g"
        assert objective.term(2.0) == 16.0

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SearchObjective("carbon", weight=0.0)

    def test_weight_and_exponent_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SearchObjective("carbon", weight=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            SearchObjective("carbon", exponent=float("nan"))


class TestSearchConstraint:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="maximum and/or minimum"):
            SearchConstraint("area")

    def test_bounds_are_inclusive(self):
        constraint = SearchConstraint("area", maximum=10.0, minimum=2.0)
        assert constraint.satisfied(10.0)
        assert constraint.satisfied(2.0)
        assert not constraint.satisfied(10.1)
        assert not constraint.satisfied(1.9)

    def test_nan_never_satisfies(self):
        assert not SearchConstraint("area", maximum=10.0).satisfied(float("nan"))


class TestSpecParsing:
    def test_objective_shorthand_forms_agree(self):
        by_name = SearchSpec.from_dict({"space": SMALL_SPACE, "objectives": "carbon"})
        by_map = SearchSpec.from_dict(
            {"space": SMALL_SPACE, "objectives": {"carbon": 1.0}}
        )
        by_list = SearchSpec.from_dict(
            {"space": SMALL_SPACE, "objectives": [{"metric": "carbon"}]}
        )
        assert (
            by_name.objectives == by_map.objectives == by_list.objectives
        )

    def test_nested_objective_weights_and_exponents(self):
        spec = SearchSpec.from_dict(
            {
                "space": SMALL_SPACE,
                "objectives": {
                    "carbon": {"weight": 1.0},
                    "cost": {"weight": 0.5, "exponent": 2.0},
                },
            }
        )
        assert spec.metric_names == ("total_carbon_g", "cost_usd")
        assert spec.objectives[1].exponent == 2.0

    def test_constraint_shorthand_and_list_forms(self):
        by_map = SearchSpec.from_dict(
            {"space": SMALL_SPACE, "constraints": {"area": 500.0}}
        )
        by_list = SearchSpec.from_dict(
            {
                "space": SMALL_SPACE,
                "constraints": [{"metric": "area", "max": 500.0}],
            }
        )
        assert by_map.constraints == by_list.constraints
        assert by_map.constraints[0].maximum == 500.0

    def test_unknown_spec_keys_raise(self):
        with pytest.raises(KeyError, match="unknown search-spec keys"):
            SearchSpec.from_dict({"space": SMALL_SPACE, "bugdet": 10})

    def test_space_key_is_required(self):
        with pytest.raises(KeyError, match="space"):
            SearchSpec.from_dict({"budget": 10})

    def test_unknown_objective_keys_raise(self):
        with pytest.raises(KeyError, match="unknown objective keys"):
            SearchSpec.from_dict(
                {"space": SMALL_SPACE, "objectives": {"carbon": {"wieght": 1}}}
            )

    def test_duplicate_objective_metrics_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpec.from_dict(
                {"space": SMALL_SPACE, "objectives": ["carbon", "cfp_total"]}
            )

    def test_budget_and_batch_size_validation(self):
        with pytest.raises(ValueError, match="budget"):
            small_spec(budget=0)
        with pytest.raises(ValueError, match="batch_size"):
            small_spec(batch_size=0)
        with pytest.raises(ValueError, match="stall_rounds"):
            small_spec(stall_rounds=0)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            small_spec(strategy="simulated_annealing")

    def test_space_mapping_is_converted(self):
        spec = small_spec()
        assert isinstance(spec.space, SweepSpec)
        assert spec.space.name == "search-grid"

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"space": SMALL_SPACE, "budget": 9, "seed": 7})
        )
        spec = SearchSpec.from_file(path)
        assert spec.budget == 9
        assert spec.seed == 7


class TestScoring:
    GOOD = {"total_carbon_g": 10.0, "cost_usd": 4.0, "silicon_area_mm2": 100.0}

    def test_weighted_cost_sums_objective_terms(self):
        spec = small_spec(
            objectives=(
                SearchObjective("carbon", weight=2.0),
                SearchObjective("cost", weight=1.0, exponent=2.0),
            )
        )
        assert spec.weighted_cost(self.GOOD) == 2.0 * 10.0 + 4.0**2

    def test_error_records_score_inf(self):
        spec = small_spec()
        assert spec.score({"error": '{"code": "boom"}'}) == float("inf")
        assert not spec.feasible({"error": '{"code": "boom"}'})

    def test_missing_and_nan_metrics_score_inf(self):
        spec = small_spec()
        assert spec.score({"cost_usd": 1.0}) == float("inf")
        assert spec.score({"total_carbon_g": float("nan")}) == float("inf")

    def test_constraint_violations_are_infeasible(self):
        spec = small_spec(constraints=(SearchConstraint("area", maximum=50.0),))
        assert spec.score(self.GOOD) == float("inf")
        within = dict(self.GOOD, silicon_area_mm2=50.0)
        assert spec.score(within) == within["total_carbon_g"]


class TestStrategyRegistry:
    def test_builtins_are_registered(self):
        assert {"random", "successive_halving", "pareto_refine"} <= set(
            strategy_names()
        )

    def test_unknown_strategy_lists_names(self):
        with pytest.raises(KeyError, match="registered strategies"):
            get_strategy("hillclimb")

    def test_register_and_use_a_custom_strategy(self):
        class FirstK:
            name = "first_k"

            def batches(self, context):
                budget = min(context.spec.budget, context.space.size)
                yield list(range(budget))

        register_strategy("first_k", FirstK)
        try:
            spec = small_spec(strategy="first_k", budget=5)
            result = run_search(spec, SweepEngine())
            assert sorted(r["scenario"] for r in result.front) == sorted(
                set(r["scenario"] for r in result.front)
            )
            assert result.evaluations == 5
            assert {r["scenario"] for r in (result.best,)} <= {0, 1, 2, 3, 4}
        finally:
            _STRATEGIES.pop("first_k", None)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_strategy("", RandomStrategy)


class TestSearchContext:
    def _context(self):
        spec = small_spec()
        return SearchContext(spec, GridSpace(spec.space))

    def test_ingest_tracks_best_with_index_tie_break(self):
        context = self._context()
        context.ingest({3: {"total_carbon_g": 5.0}, 1: {"total_carbon_g": 5.0}})
        assert context.best_index == 1
        assert context.best_score == 5.0
        context.ingest({0: {"total_carbon_g": 5.0}})
        assert context.best_index == 0

    def test_top_of_ranks_by_score_then_index(self):
        context = self._context()
        context.ingest(
            {
                0: {"total_carbon_g": 2.0},
                1: {"total_carbon_g": 1.0},
                2: {"total_carbon_g": 2.0},
                3: {"error": "x"},
            }
        )
        assert context.top_of([0, 1, 2, 3], 3) == [1, 0, 2]

    def test_infeasible_records_never_rank_or_front(self):
        context = self._context()
        entered, left = context.ingest({0: {"error": "x"}, 1: {"error": "y"}})
        assert context.front == ()
        assert entered == () and left == ()
        assert context.best_index is None

    def test_unevaluated_filters_and_sorts(self):
        context = self._context()
        context.ingest({2: {"total_carbon_g": 1.0}})
        assert context.unevaluated([5, 2, 3, 5]) == [3, 5]

    def test_front_delta_reported_per_ingest(self):
        context = self._context()
        entered, _ = context.ingest({4: {"total_carbon_g": 3.0}})
        assert entered == (4,)
        entered, left = context.ingest({2: {"total_carbon_g": 1.0}})
        assert entered == (2,)
        assert left == (4,)


class TestStrategyDeterminism:
    def test_random_batches_are_a_pure_function_of_the_seed(self):
        spec = small_spec(strategy="random")
        space = GridSpace(spec.space)
        runs = []
        for _ in range(2):
            context = SearchContext(spec, space)
            batches = []
            for batch in RandomStrategy().batches(context):
                batches.append(batch)
                context.ingest(
                    {index: {"total_carbon_g": float(index)} for index in batch}
                )
            runs.append(batches)
        assert runs[0] == runs[1]
        assert all(batch == sorted(batch) for batch in runs[0])

    def test_different_seeds_differ(self):
        spaces = {}
        for seed in (0, 1):
            spec = small_spec(strategy="random", seed=seed, budget=27)
            context = SearchContext(spec, GridSpace(spec.space))
            spaces[seed] = list(RandomStrategy().batches(context))
        assert spaces[0] != spaces[1]


class TestRunner:
    def test_budget_caps_evaluations(self):
        result = run_search(small_spec(budget=7), SweepEngine())
        assert result.evaluations == 7
        assert result.budget == 7
        assert result.new_evaluations == 7
        assert 0.0 < result.evaluated_fraction < 1.0

    def test_budget_is_capped_at_the_grid(self):
        result = run_search(
            small_spec(budget=10_000, strategy="random"), SweepEngine()
        )
        assert result.budget == 27
        assert result.evaluations == 27

    def test_store_rows_carry_the_search_round(self, tmp_path):
        out = tmp_path / "search.jsonl"
        result = run_search(small_spec(), SweepEngine(), out=out)
        records = load_records(out)
        assert len(records) == result.evaluations
        rounds = [record["search_round"] for record in records]
        assert rounds == sorted(rounds)
        assert set(rounds) == {stats.round_index for stats in result.rounds if stats.evaluated}

    def test_round_stats_trace_the_trajectory(self):
        result = run_search(small_spec(), SweepEngine())
        assert [stats.round_index for stats in result.rounds] == list(
            range(len(result.rounds))
        )
        assert sum(stats.evaluated for stats in result.rounds) == result.evaluations
        best_scores = [stats.best_score for stats in result.rounds]
        assert best_scores == sorted(best_scores, reverse=True)

    def test_best_label_and_front_are_populated(self):
        result = run_search(small_spec(), SweepEngine())
        assert isinstance(result, SearchResult)
        assert result.best is not None
        assert result.best_label and "/" in result.best_label
        assert any(
            record["scenario"] == result.best["scenario"] for record in result.front
        )

    def test_resume_requires_out(self):
        with pytest.raises(ValueError, match="resume"):
            run_search(small_spec(), SweepEngine(), resume=True)

    def test_progress_callback_sees_monotone_counts(self):
        seen = []
        run_search(
            small_spec(), SweepEngine(), progress=lambda done, budget: seen.append((done, budget))
        )
        assert seen == sorted(seen)
        assert seen[-1][0] <= seen[-1][1] == 12

    def test_infeasible_everywhere_returns_no_best(self):
        spec = small_spec(
            constraints=(SearchConstraint("area", maximum=0.001),), budget=6
        )
        result = run_search(spec, SweepEngine())
        assert result.best is None
        assert result.best_score == float("inf")
        assert result.best_label is None
        assert result.front == ()


class TestResume:
    def test_killed_search_resumes_byte_identically(self, tmp_path):
        spec = small_spec(budget=16, batch_size=4)
        reference = tmp_path / "reference.jsonl"
        run_search(spec, SweepEngine(), out=reference)

        class Kill(Exception):
            pass

        interrupted = tmp_path / "interrupted.jsonl"
        calls = []

        def bomb(done, budget):
            calls.append(done)
            if len(calls) >= 2:
                raise Kill()

        with pytest.raises(Kill):
            run_search(spec, SweepEngine(), out=interrupted, progress=bomb)
        assert 0 < len(load_records(interrupted)) < 16

        resumed = run_search(spec, SweepEngine(), out=interrupted, resume=True)
        assert interrupted.read_bytes() == reference.read_bytes()
        # The search may stop short of the budget when proposals run dry;
        # what matters is that the resume reaches the reference trajectory.
        assert resumed.evaluations == len(load_records(reference))
        assert resumed.new_evaluations < resumed.evaluations
        assert resumed.new_evaluations + sum(
            stats.replayed for stats in resumed.rounds
        ) == resumed.evaluations
        scenario_ids = [r["scenario"] for r in load_records(interrupted)]
        assert len(scenario_ids) == len(set(scenario_ids))

    def test_resuming_a_complete_store_spends_nothing(self, tmp_path):
        spec = small_spec(budget=10)
        out = tmp_path / "done.jsonl"
        first = run_search(spec, SweepEngine(), out=out)
        before = out.read_bytes()
        again = run_search(spec, SweepEngine(), out=out, resume=True)
        assert again.new_evaluations == 0
        assert again.evaluations == first.evaluations
        assert again.best == first.best
        assert out.read_bytes() == before


    @pytest.mark.parametrize("stored_cost", [False, True])
    def test_resume_with_the_other_cost_setting_fails_before_the_store_opens(
        self, tmp_path, stored_cost
    ):
        spec = small_spec(budget=10)
        out = tmp_path / "s.jsonl"
        run_search(spec, SweepEngine(include_cost=stored_cost), out=out)
        before = out.read_bytes()
        with pytest.raises(ValueError, match=f"cannot resume {re.escape(str(out))}: .*cost_usd"):
            run_search(
                small_spec(budget=16), SweepEngine(include_cost=not stored_cost),
                out=out, resume=True,
            )
        assert out.read_bytes() == before


class TestEngineAnnotate:
    def test_annotations_merge_into_every_record(self, tmp_path):
        spec = SweepSpec.from_dict(SMALL_SPACE)
        scenarios = spec.expand()[:3]
        collected = []
        SweepEngine().run(
            scenarios,
            on_block=lambda block: collected.extend(block.records()),
            annotate={"search_round": 9, "tag": "x"},
        )
        assert len(collected) == 3
        assert all(r["search_round"] == 9 and r["tag"] == "x" for r in collected)

    def test_colliding_annotation_keys_raise(self):
        spec = SweepSpec.from_dict(SMALL_SPACE)
        with pytest.raises(ValueError, match="collide"):
            SweepEngine().run(spec.expand()[:1], annotate={"scenario": 1})


class TestRecordsByScenario:
    def test_missing_file_is_empty(self, tmp_path):
        assert records_by_scenario(tmp_path / "absent.jsonl") == {}

    def test_first_row_wins_per_scenario(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"scenario": 1, "total_carbon_g": 1.0}\n'
            '{"scenario": 2, "total_carbon_g": 2.0}\n'
            '{"scenario": 1, "total_carbon_g": 99.0}\n'
        )
        records = records_by_scenario(path)
        assert sorted(records) == [1, 2]
        assert records[1]["total_carbon_g"] == 1.0

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"scenario": 4, "total_carbon_g": 3.0}\n{"scenario": 5, "tot'
        )
        assert sorted(records_by_scenario(path)) == [4]
