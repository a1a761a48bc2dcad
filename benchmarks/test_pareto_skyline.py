"""Skyline Pareto-front benchmark: >= 10k points through the new algorithm.

``pareto_front`` used to be an all-pairs O(n^2) scan — fine for the paper's
few-hundred-point spaces, hopeless for the 10k+ scenario grids the sweep
engine produces.  The sort-based skyline (O(n log n) for two objectives;
divide and conquer, vectorised with numpy on large inputs, for k >= 3) is
benchmarked here on 10,000 random points and cross-checked against the
naive reference on a smaller sample.  The k >= 3 rewrite must beat the
legacy block-nested loop it replaced, kept here as :func:`_skyline_bnl`
(it is no longer part of the library), by ``SKYLINE_3D_SPEEDUP_FLOOR``.
"""

from __future__ import annotations

import random
import time

from conftest import print_series

from repro.core.explorer import _dominates, pareto_front

try:
    import numpy  # noqa: F401 - availability probe only

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is in the reference env
    HAVE_NUMPY = False

POINT_COUNT = 10_000

#: The k>=3 skyline rewrite's acceptance bar over the block-nested loop it
#: replaced (full pareto_front call vs the equivalent legacy path, same
#: 10k-point input).  Only enforced where numpy backs the vectorised path.
SKYLINE_3D_SPEEDUP_FLOOR = 3.0


def _skyline_bnl(vectors):
    """Indices of the k-objective non-dominated set (block-nested loop).

    The legacy k >= 3 skyline: points are visited in lexicographic order so
    likely dominators enter the window early, and each candidate is
    compared against the window with an early exit on the first dominator.
    Lexicographic order means a later candidate never dominates an earlier
    window entry, so the window only grows.  O(n * |front|) comparisons.
    """
    order = sorted(range(len(vectors)), key=lambda i: vectors[i])
    window = []
    for index in order:
        candidate = vectors[index]
        if not any(_dominates(vectors[kept], candidate) for kept in window):
            window.append(index)
    return window


class _Vector:
    """Minimal object satisfying the pareto_front objective protocol."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def objective(self, name):
        return self.values[name]


def _random_points(count, names, seed=42):
    rng = random.Random(seed)
    return [
        _Vector({name: rng.random() for name in names}) for _ in range(count)
    ]


def _naive_front(points, names):
    vectors = [tuple(p.objective(n) for n in names) for p in points]

    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    return [
        p
        for i, p in enumerate(points)
        if not any(dominates(vectors[j], vectors[i]) for j in range(len(points)) if j != i)
    ]


def test_skyline_2d_on_10k_points(benchmark):
    names = ["total_carbon_g", "silicon_area_mm2"]
    points = _random_points(POINT_COUNT, names)
    front = benchmark(pareto_front, points, names)
    print_series(
        "Skyline Pareto front, 2 objectives",
        [f"  {POINT_COUNT} points -> {len(front)} non-dominated"],
    )
    assert 0 < len(front) < POINT_COUNT
    # Spot-check against the O(n^2) reference on a subsample.
    sample = points[:400]
    assert pareto_front(sample, names) == _naive_front(sample, names)


def test_skyline_3d_on_10k_points(benchmark):
    names = ["total_carbon_g", "silicon_area_mm2", "power_w"]
    points = _random_points(POINT_COUNT, names, seed=7)

    # The legacy path this PR replaced: extract vectors, block-nested loop,
    # rebuild the front in input order — exactly what pareto_front used to do.
    def legacy_front():
        vectors = [tuple(p.objective(n) for n in names) for p in points]
        keep = set(_skyline_bnl(vectors))
        return [p for i, p in enumerate(points) if i in keep]

    legacy_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        legacy = legacy_front()
        legacy_best = min(legacy_best, time.perf_counter() - start)

    front = benchmark(pareto_front, points, names)
    # Best-case vs best-case: like the benchmark gate, minima are the noise-
    # robust estimator (contention only ever inflates round times).
    new_seconds = benchmark.stats.stats.min
    speedup = legacy_best / new_seconds
    print_series(
        "Divide-and-conquer Pareto front, 3 objectives",
        [
            f"  {POINT_COUNT} points -> {len(front)} non-dominated",
            f"  legacy BNL : {legacy_best * 1000:8.2f} ms",
            f"  new skyline: {new_seconds * 1000:8.2f} ms",
            f"  speedup    : {speedup:8.1f}x (floor: {SKYLINE_3D_SPEEDUP_FLOOR}x)",
        ],
    )
    assert front == legacy  # same points, same input order
    assert 0 < len(front) < POINT_COUNT
    sample = points[:300]
    assert pareto_front(sample, names) == _naive_front(sample, names)
    if HAVE_NUMPY:
        assert speedup >= SKYLINE_3D_SPEEDUP_FLOOR, (
            f"k>=3 skyline speedup {speedup:.1f}x is below the "
            f"{SKYLINE_3D_SPEEDUP_FLOOR}x acceptance floor"
        )


def test_skyline_is_fast_enough_for_sweep_scale():
    # A hard functional bound rather than a relative timing assertion: the
    # old all-pairs scan took minutes at this size; the skyline must chew
    # through a 50k-point 2-objective front without drama.
    import time

    names = ["a", "b"]
    points = _random_points(50_000, names, seed=3)
    start = time.perf_counter()
    front = pareto_front(points, names)
    elapsed = time.perf_counter() - start
    assert front
    assert elapsed < 5.0
