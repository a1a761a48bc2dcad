"""Property-based skyline equivalence (hypothesis).

Every skyline implementation — one pure-Python and one vectorised numpy
version per regime: the 2-objective sweep, the k>=3 divide-and-conquer,
and their numpy counterparts — must compute the exact non-dominated index
set of a brute-force all-pairs scan on *any* input, including coarse value grids
full of exact duplicates and single-axis ties.  NaN handling is a
:func:`repro.core.explorer.pareto_front` contract (exclude-with-warning or
raise), checked against a NaN-free reference front.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explorer import (
    _dominates,
    _skyline_2d,
    _skyline_divide,
    pareto_front,
)

try:
    import numpy  # noqa: F401 - availability probe only

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is in the reference env
    HAVE_NUMPY = False

if HAVE_NUMPY:
    from repro.core.explorer import _skyline_2d_numpy, _skyline_numpy


def brute_force_front(vectors):
    """Reference O(n^2) non-dominated index set."""
    return sorted(
        i
        for i, candidate in enumerate(vectors)
        if not any(
            _dominates(other, candidate) for j, other in enumerate(vectors) if j != i
        )
    )


def divide(vectors):
    """:func:`_skyline_divide` over ``vectors`` in lexicographic order."""
    return _skyline_divide(sorted(range(len(vectors)), key=lambda i: vectors[i]), vectors)


class _Vector:
    def __init__(self, values):
        self.values = tuple(values)

    def objective(self, name):
        return self.values[int(name)]


#: Coarse coordinate grid: few distinct values force duplicates and ties.
coarse = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
#: Continuous coordinates, including negatives, zero and large magnitudes.
smooth = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def grids(coords, min_k, max_k):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.lists(
            st.tuples(*([coords] * k)), min_size=0, max_size=120
        )
    )


class TestSkylineEquivalence:
    @given(vectors=grids(coarse, 2, 2))
    @settings(max_examples=200)
    def test_2d_sweep_matches_brute_force(self, vectors):
        assert sorted(_skyline_2d(vectors)) == brute_force_front(vectors)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-only fast path")
    @given(vectors=grids(coarse, 2, 2))
    @settings(max_examples=200)
    def test_2d_numpy_matches_brute_force_on_coarse_grids(self, vectors):
        matrix = numpy.asarray(vectors, dtype=float).reshape(len(vectors), 2)
        assert sorted(_skyline_2d_numpy(matrix)) == brute_force_front(vectors)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-only fast path")
    @given(vectors=grids(smooth, 2, 2))
    @settings(max_examples=150)
    def test_2d_numpy_matches_brute_force_on_smooth_points(self, vectors):
        matrix = numpy.asarray(vectors, dtype=float).reshape(len(vectors), 2)
        assert sorted(_skyline_2d_numpy(matrix)) == brute_force_front(vectors)

    @given(vectors=grids(coarse, 3, 5))
    @settings(max_examples=200)
    def test_k3plus_all_implementations_agree_on_coarse_grids(self, vectors):
        expected = brute_force_front(vectors)
        assert sorted(divide(vectors)) == expected
        if HAVE_NUMPY:
            assert sorted(_skyline_numpy(vectors)) == expected

    @given(vectors=grids(smooth, 3, 4))
    @settings(max_examples=150)
    def test_k3plus_all_implementations_agree_on_smooth_points(self, vectors):
        expected = brute_force_front(vectors)
        assert sorted(divide(vectors)) == expected
        if HAVE_NUMPY:
            assert sorted(_skyline_numpy(vectors)) == expected

    @given(vectors=grids(coarse, 3, 3), copies=st.integers(1, 3))
    @settings(max_examples=100)
    def test_exact_duplicates_always_survive_together(self, vectors, copies):
        # Duplicate the whole input: by mutual non-domination, each front
        # member's copies are all on the front too.
        duplicated = list(vectors) * (copies + 1)
        expected = brute_force_front(duplicated)
        assert sorted(divide(duplicated)) == expected
        if HAVE_NUMPY:
            assert sorted(_skyline_numpy(duplicated)) == expected

    @given(vectors=grids(coarse, 3, 3))
    @settings(max_examples=100)
    def test_divide_recursion_is_exercised_past_the_base_case(self, vectors):
        # Grow past _DNC_BASE_CASE so the merge path runs, not just the scan.
        grown = list(vectors) * 3 + [(v[0] + 0.125, v[1], v[2]) for v in vectors]
        assert sorted(divide(grown)) == brute_force_front(grown)


class TestParetoFrontNaN:
    @given(
        vectors=grids(coarse, 3, 3),
        nan_positions=st.lists(st.tuples(st.integers(0, 119), st.integers(0, 2)), max_size=5),
    )
    @settings(max_examples=100)
    def test_nan_points_are_excluded_not_served(self, vectors, nan_positions):
        poisoned = [list(v) for v in vectors]
        for row, col in nan_positions:
            if row < len(poisoned):
                poisoned[row][col] = math.nan
        points = [_Vector(v) for v in poisoned]
        clean_indexes = [
            i for i, v in enumerate(poisoned) if not any(x != x for x in v)
        ]
        clean_vectors = [tuple(poisoned[i]) for i in clean_indexes]
        expected = [points[clean_indexes[i]] for i in brute_force_front(clean_vectors)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            front = pareto_front(points, ["0", "1", "2"])
        assert front == expected

    def test_nan_emits_runtime_warning_and_raise_mode_raises(self):
        points = [_Vector((math.nan, 1.0)), _Vector((2.0, 2.0))]
        with pytest.warns(RuntimeWarning, match="NaN"):
            assert pareto_front(points, ["0", "1"]) == [points[1]]
        with pytest.raises(ValueError, match="NaN"):
            pareto_front(points, ["0", "1"], on_nan="raise")

    @given(perm_seed=st.integers(0, 1000))
    @settings(max_examples=50)
    def test_single_objective_minimum_is_order_independent_under_nan(self, perm_seed):
        import random

        values = [math.nan, 3.0, 1.0, math.nan, 1.0, 2.0]
        rng = random.Random(perm_seed)
        rng.shuffle(values)
        points = [_Vector((v,)) for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            front = pareto_front(points, ["0"])
        assert sorted(p.values[0] for p in front) == [1.0, 1.0]

    def test_invalid_on_nan_mode_rejected(self):
        with pytest.raises(ValueError, match="on_nan"):
            pareto_front([_Vector((1.0,))], ["0"], on_nan="ignore")
