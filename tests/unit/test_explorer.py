"""Unit tests for carbon-aware DSE: ``Session.explore`` and repro.core.explorer."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import Session
from repro.api import ExploreResult
from repro.core.explorer import front_delta, front_moved, pareto_front
from repro.sweep.engine import METRIC_COLUMNS
from repro.sweep.store import rows_from_records
from repro.testcases.registry import get_testcase

PACKAGING = ["rdl_fanout", "silicon_bridge"]


@pytest.fixture(scope="module")
def result():
    return Session().explore(
        "emr-2chiplet",
        [7, 14],
        packaging=PACKAGING,
        objectives=["total_carbon_g", "cost_usd"],
    )


@pytest.fixture(scope="module")
def points(result):
    return list(result.points)


class TestExploration:
    def test_exhaustive_enumeration_size(self, points):
        # 2 nodes ^ 2 chiplets x 2 packaging choices = 8 candidates.
        assert len(points) == 8
        assert len({p.label for p in points}) == 8

    def test_every_point_has_carbon_and_cost(self, points):
        for point in points:
            assert point.objective("total_carbon_g") > 0
            assert point.objective("cost_usd") > 0

    def test_objective_lookup(self, points):
        point = points[0]
        for name in METRIC_COLUMNS:
            assert point.objective(name) >= 0
        with pytest.raises(KeyError):
            point.objective("coolness")

    def test_cost_objective_without_cost_model(self, monkeypatch):
        # Without cost the records have no cost_usd column: the objective is
        # refused before any candidate is evaluated, not scored inf.
        session = Session(include_cost=False)
        monkeypatch.setattr(session, "sweep", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(KeyError, match=r"unknown objectives \['cost_usd'\]"):
            session.explore("emr-2chiplet", [7, 14], objectives=["cost_usd", "total_carbon_g"])

    def test_unknown_objective_fails_before_any_evaluation(self, monkeypatch):
        session = Session()
        monkeypatch.setattr(session, "sweep", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(KeyError, match="known numeric record columns"):
            session.explore("emr-2chiplet", [7, 14], objectives=["total_carbon_g", "coolness"])

    def test_every_record_metric_is_an_objective(self):
        # design_carbon_g and hi_carbon_g included.
        result = Session().explore("emr-2chiplet", [7], objectives=METRIC_COLUMNS)
        assert result.front == result.points

    def test_invalid_inputs(self):
        session = Session()
        with pytest.raises(ValueError):
            session.explore("emr-2chiplet", node_choices=[])
        with pytest.raises(ValueError):
            session.explore("emr-2chiplet", node_choices=[7], packaging=[])

    def test_a_built_system_is_refused(self):
        with pytest.raises(TypeError, match="testcase name or a design directory"):
            Session().explore(get_testcase("emr-2chiplet"), [7])

    def test_a_packaging_spec_object_is_refused(self):
        from repro.packaging.rdl import RDLFanoutSpec

        with pytest.raises(TypeError, match="names or dicts"):
            Session().explore("emr-2chiplet", [7], packaging=[RDLFanoutSpec()])


class TestSelection:
    def test_best_minimises_the_objective(self, result, points):
        assert result.best.objective("total_carbon_g") == min(
            p.objective("total_carbon_g") for p in points
        )

    def test_best_breaks_objective_ties_by_label(self):
        # Regression: with equal objective values the winner used to be
        # whichever point came first in the input, so reversing the list
        # changed the answer.  The secondary key is the point label.
        tied = (
            _LabelledVector("zeta", {"total_carbon_g": 5.0}),
            _LabelledVector("alpha", {"total_carbon_g": 5.0}),
            _LabelledVector("mid", {"total_carbon_g": 7.0}),
        )
        for points in (tied, tied[::-1]):
            result = ExploreResult(points=points, front=points, objectives=("total_carbon_g",))
            assert result.best.label == "alpha"


class TestParetoFront:
    def test_front_is_non_empty_and_non_dominated(self, points):
        front = pareto_front(points, ["embodied_carbon_g", "power_w"])
        assert front
        for candidate in front:
            for other in points:
                assert not (
                    other.objective("embodied_carbon_g") < candidate.objective("embodied_carbon_g")
                    and other.objective("power_w") < candidate.objective("power_w")
                )

    def test_single_objective_front_is_the_minimum(self, result, points):
        front = pareto_front(points, ["total_carbon_g"])
        assert min(p.objective("total_carbon_g") for p in front) == pytest.approx(
            result.best.objective("total_carbon_g")
        )

    def test_front_requires_objectives(self, points):
        with pytest.raises(ValueError):
            pareto_front(points, [])

    def test_best_point_is_always_on_the_front(self, result):
        assert any(p is result.best for p in result.front)


def test_import_repro_leaves_numpy_unloaded():
    code = "import sys, repro; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------------
# Skyline algorithm correctness (sort-based pareto_front vs brute force)
# ---------------------------------------------------------------------------
class _Vector:
    """Minimal object satisfying the pareto_front objective protocol."""

    def __init__(self, values):
        self.values = dict(values)

    def objective(self, name):
        return self.values[name]


class _LabelledVector(_Vector):
    """A vector with the ``label`` attribute ``best`` tie-breaks on."""

    def __init__(self, label, values):
        super().__init__(values)
        self.label = label


def _naive_front(points, objectives):
    """Reference O(n^2) all-pairs implementation."""
    vectors = [tuple(p.objective(name) for name in objectives) for p in points]

    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    return [
        p
        for i, p in enumerate(points)
        if not any(dominates(vectors[j], vectors[i]) for j in range(len(points)) if j != i)
    ]


class TestSkylineCorrectness:
    @pytest.mark.parametrize("objective_count", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_on_random_points(self, objective_count, seed):
        import random

        rng = random.Random(seed)
        names = [f"o{i}" for i in range(objective_count)]
        points = [
            _Vector({name: rng.randint(0, 9) for name in names}) for _ in range(200)
        ]
        expected = _naive_front(points, names)
        actual = pareto_front(points, names)
        assert actual == expected  # same points, same (input) order

    def test_exact_duplicates_survive_together(self):
        points = [
            _Vector({"a": 1.0, "b": 2.0}),
            _Vector({"a": 1.0, "b": 2.0}),
            _Vector({"a": 2.0, "b": 3.0}),
        ]
        front = pareto_front(points, ["a", "b"])
        assert front == points[:2]

    def test_ties_on_one_axis_are_resolved_strictly(self):
        # (1, 5) dominates (2, 5): equal second objective, strictly better first.
        points = [_Vector({"a": 2.0, "b": 5.0}), _Vector({"a": 1.0, "b": 5.0})]
        assert pareto_front(points, ["a", "b"]) == [points[1]]

    def test_preserves_input_order(self):
        points = [
            _Vector({"a": 3.0, "b": 1.0}),
            _Vector({"a": 2.0, "b": 2.0}),
            _Vector({"a": 1.0, "b": 3.0}),
        ]
        assert pareto_front(points, ["a", "b"]) == points

    def test_single_objective_keeps_all_minima(self):
        points = [_Vector({"a": 1.0}), _Vector({"a": 2.0}), _Vector({"a": 1.0})]
        front = pareto_front(points, ["a"])
        assert front == [points[0], points[2]]

    def test_large_front_all_non_dominated(self):
        # Anti-chain: every point trades one objective for the other.
        points = [_Vector({"a": float(i), "b": float(100 - i)}) for i in range(100)]
        assert pareto_front(points, ["a", "b"]) == points


class TestSkylineBlockNestedLoop:
    """The k>=3 branch (divide-and-conquer `_skyline_divide`) specifically.

    Small inputs here run the pure-python recursion; the vectorised numpy
    path is held to the same answers in TestSkylineKdDispatch and
    tests/property/test_property_skyline.py.
    """

    OBJ3 = ["a", "b", "c"]

    def test_exact_duplicates_survive_together(self):
        points = [
            _Vector({"a": 1.0, "b": 2.0, "c": 3.0}),
            _Vector({"a": 1.0, "b": 2.0, "c": 3.0}),
            _Vector({"a": 2.0, "b": 3.0, "c": 4.0}),
        ]
        assert pareto_front(points, self.OBJ3) == points[:2]

    def test_duplicated_dominated_points_all_dropped(self):
        points = [
            _Vector({"a": 1.0, "b": 1.0, "c": 1.0}),
            _Vector({"a": 5.0, "b": 5.0, "c": 5.0}),
            _Vector({"a": 5.0, "b": 5.0, "c": 5.0}),
        ]
        assert pareto_front(points, self.OBJ3) == points[:1]

    def test_tie_on_two_objectives_third_decides(self):
        # Equal a and b; strictly better c dominates.
        points = [
            _Vector({"a": 1.0, "b": 1.0, "c": 2.0}),
            _Vector({"a": 1.0, "b": 1.0, "c": 1.0}),
        ]
        assert pareto_front(points, self.OBJ3) == [points[1]]

    def test_tie_plane_is_an_antichain(self):
        # All points share c; (a, b) form an anti-chain, so all survive.
        points = [
            _Vector({"a": float(i), "b": float(10 - i), "c": 7.0}) for i in range(10)
        ]
        assert pareto_front(points, self.OBJ3) == points

    def test_tie_breaks_through_the_sort_order(self):
        # Lexicographically earlier point dominating a later one that ties
        # on the first objective — exercises the window's early-entry path.
        points = [
            _Vector({"a": 1.0, "b": 4.0, "c": 4.0}),
            _Vector({"a": 1.0, "b": 2.0, "c": 2.0}),
            _Vector({"a": 1.0, "b": 2.0, "c": 3.0}),
        ]
        assert pareto_front(points, self.OBJ3) == [points[1]]

    @pytest.mark.parametrize("objective_count", [3, 4, 5])
    @pytest.mark.parametrize("seed", [7, 42])
    def test_agrees_with_brute_force_under_duplicates_and_ties(
        self, objective_count, seed
    ):
        import random

        rng = random.Random(seed)
        names = [f"o{i}" for i in range(objective_count)]
        # A coarse value grid forces many exact duplicates and axis ties;
        # explicit copies of sampled points add duplicates split across the
        # input order.
        points = [
            _Vector({name: float(rng.randint(0, 3)) for name in names})
            for _ in range(300)
        ]
        points += [_Vector(dict(p.values)) for p in rng.sample(points, 30)]
        expected = _naive_front(points, names)
        assert pareto_front(points, names) == expected


class TestSkylineKdDispatch:
    """Dispatch seams of the k>=3 skyline and the NaN contract."""

    OBJ3 = ["a", "b", "c"]

    def _grid(self, count, seed=3):
        import random

        rng = random.Random(seed)
        points = [
            _Vector({n: float(rng.randint(0, 5)) for n in self.OBJ3})
            for _ in range(count)
        ]
        return points + [_Vector(dict(p.values)) for p in rng.sample(points, count // 10)]

    def test_large_input_crosses_the_numpy_threshold_and_matches_brute_force(self):
        from repro.core.explorer import _NUMPY_MIN_POINTS

        points = self._grid(_NUMPY_MIN_POINTS * 2)
        assert pareto_front(points, self.OBJ3) == _naive_front(points, self.OBJ3)

    def test_numpy_and_divide_agree_above_and_below_the_threshold(self):
        pytest.importorskip("numpy")
        from repro.core.explorer import _NUMPY_MIN_POINTS, _skyline_divide, _skyline_numpy

        for count in (40, _NUMPY_MIN_POINTS * 2):
            points = self._grid(count, seed=count)
            vectors = [tuple(p.objective(n) for n in self.OBJ3) for p in points]
            order = sorted(range(len(vectors)), key=lambda i: vectors[i])
            assert sorted(_skyline_numpy(vectors)) == sorted(_skyline_divide(order, vectors))

    def test_nan_points_are_excluded_with_a_warning(self):
        nan = float("nan")
        points = [
            _Vector({"a": 1.0, "b": 1.0, "c": nan}),  # would pollute the front
            _Vector({"a": 2.0, "b": 2.0, "c": 2.0}),
            _Vector({"a": 3.0, "b": 3.0, "c": 3.0}),
        ]
        with pytest.warns(RuntimeWarning, match="NaN"):
            assert pareto_front(points, self.OBJ3) == [points[1]]

    def test_nan_raise_mode(self):
        points = [_Vector({"a": float("nan"), "b": 1.0}), _Vector({"a": 1.0, "b": 1.0})]
        with pytest.raises(ValueError, match="NaN"):
            pareto_front(points, ["a", "b"], on_nan="raise")

    def test_single_objective_nan_does_not_poison_min(self):
        # Regression: min() over [nan, 1.0] is nan but over [1.0, nan] is
        # 1.0 — the old path's front depended on input order.
        nan = float("nan")
        forward = [_Vector({"a": nan}), _Vector({"a": 1.0})]
        backward = list(reversed(forward))
        with pytest.warns(RuntimeWarning):
            assert pareto_front(forward, ["a"]) == [forward[1]]
        with pytest.warns(RuntimeWarning):
            assert pareto_front(backward, ["a"]) == [backward[0]]


class TestExplorerParetoNanPlumbing:
    """`pareto_front` over stored rows honours `on_nan=`."""

    NAN_ROWS = rows_from_records([{"a": float("nan"), "b": 1.0}, {"a": 1.0, "b": 2.0}])

    def test_default_excludes_with_a_warning(self):
        with pytest.warns(RuntimeWarning, match="NaN"):
            front = pareto_front(self.NAN_ROWS, ["a", "b"])
        assert front == [self.NAN_ROWS[1]]

    def test_raise_mode_passes_through(self):
        with pytest.raises(ValueError, match="NaN"):
            pareto_front(self.NAN_ROWS, ["a", "b"], on_nan="raise")


class TestFrontDelta:
    def test_entered_and_left(self):
        entered, left = front_delta((1, 2, 3), (2, 4, 3))
        assert entered == (4,)
        assert left == (1,)

    def test_orders_follow_the_snapshots(self):
        entered, left = front_delta((9, 1), (5, 9, 7))
        assert entered == (5, 7)  # current-snapshot order
        assert left == (1,)

    def test_unchanged_front_is_empty_delta(self):
        assert front_delta((1, 2), (1, 2)) == ((), ())
        assert not front_moved((1, 2), (1, 2))

    def test_front_moved_on_any_churn(self):
        assert front_moved((), (1,))
        assert front_moved((1,), ())
        assert front_moved((1, 2), (1, 3))
