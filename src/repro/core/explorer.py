"""Pareto fronts for carbon-aware design-space exploration (Section VI).

The paper's closing argument is that carbon should be a *first-order
optimisation metric* alongside performance, power, area and cost.  The
candidates of an exploration are evaluated by the sweep engine
(:meth:`repro.api.Session.explore` is a sweep); this module extracts the
Pareto-optimal set of the resulting records under user-selected objectives
and tracks how a front moves between snapshots.

NumPy vectorises large fronts but is imported at the first vectorised call,
so importing the package does not load it.
"""

from __future__ import annotations

import warnings
from typing import Any, Iterable, List, Sequence, Tuple

_NOT_LOADED = object()

#: NumPy once loaded, ``None`` when it is not installed; :func:`_numpy`
#: replaces the sentinel at the first vectorised call.
_np: Any = _NOT_LOADED


def _numpy() -> Any:
    """The NumPy module (the ``[fast]`` extra), or ``None`` without it."""
    global _np
    if _np is _NOT_LOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is in the reference env
            numpy = None
        _np = numpy
    return _np


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimisation).

    Assumes NaN-free vectors: every NaN comparison is ``False``, which would
    make a NaN-bearing point undominatable and silently pollute the front.
    :func:`pareto_front` screens NaN out (or raises) before any skyline runs,
    so the skylines themselves can assume a total order per coordinate.
    """
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _skyline_2d(vectors: Sequence[Tuple[float, ...]]) -> List[int]:
    """Indices of the 2-objective non-dominated set, O(n log n).

    Sweep the points in lexicographic order: an earlier point ``p`` can only
    dominate a later point ``q`` (``p.x <= q.x`` by sort order), which it
    does iff ``p.y <= q.y`` and the vectors differ.  Tracking the minimum
    ``y`` seen so far — and the smallest ``x`` achieving it, to keep exact
    duplicates mutually non-dominating — decides each point in O(1).
    """
    order = sorted(range(len(vectors)), key=lambda i: vectors[i])
    survivors: List[int] = []
    best_y = float("inf")
    best_y_x = float("inf")  # smallest x among points achieving best_y
    for index in order:
        x, y = vectors[index]
        if y < best_y:
            best_y, best_y_x = y, x
            survivors.append(index)
        elif y == best_y and x == best_y_x:
            survivors.append(index)  # exact duplicate of the current minimum
    return survivors


#: Below this many (pre-sorted) points the divide-and-conquer skyline stops
#: recursing and scans the slice directly.
_DNC_BASE_CASE = 64

#: Below this many points the vectorised skyline is not worth the array
#: round-trip and the pure-python divide-and-conquer runs instead.
_NUMPY_MIN_POINTS = 256


def _skyline_divide(
    order: Sequence[int], vectors: Sequence[Tuple[float, ...]]
) -> List[int]:
    """Indices of the k-objective non-dominated set, divide and conquer.

    ``order`` must be lexicographically pre-sorted.  That order means a later
    point can never dominate an earlier one (its first differing coordinate
    is larger; exact duplicates fail the strict-< leg of :func:`_dominates`),
    so merging halves only filters the right skyline against the left one —
    and filtering against the left *skyline* suffices, because any left point
    dominating a right point is itself dominated by (or equal to) some left
    survivor, which then dominates the right point by transitivity.  Slices
    of at most ``_DNC_BASE_CASE`` points are scanned against a window of
    the survivors so far.
    """
    if len(order) <= _DNC_BASE_CASE:
        window: List[int] = []
        for index in order:
            candidate = vectors[index]
            if not any(_dominates(vectors[kept], candidate) for kept in window):
                window.append(index)
        return window
    mid = len(order) // 2
    left = _skyline_divide(order[:mid], vectors)
    right = _skyline_divide(order[mid:], vectors)
    return left + [
        index
        for index in right
        if not any(_dominates(vectors[kept], vectors[index]) for kept in left)
    ]


def _skyline_numpy(vectors: Sequence[Tuple[float, ...]]) -> List[int]:
    """Indices of the k-objective non-dominated set, vectorised.

    The same sorted-scan argument as :func:`_skyline_divide`: after a
    lexicographic sort a later point never dominates an earlier one, so a
    single left-to-right pass suffices — each surviving point culls, in one
    whole-array comparison, every later point it dominates.  A culled
    point's own victims need no separate pass: whatever culled it (weakly)
    dominates them too, by transitivity.  The pass count therefore equals
    the front size, not n.  Tie/duplicate semantics are inherited from the
    strict-< leg: ``ge.all & gt.any`` is exactly :func:`_dominates`, so
    exact duplicates stay mutually non-dominating.
    """
    np = _numpy()
    matrix = np.asarray(vectors, dtype=float)
    if matrix.size == 0:  # an empty list collapses to shape (0,): no lexsort keys
        return []
    # lexsort keys run last-to-first; reversed rows of the transpose sort
    # by objective 0 first, matching sorted(tuple) in the python skylines.
    order = np.lexsort(matrix.T[::-1])
    ranked = matrix[order]
    cursor = 0
    while cursor < len(ranked):
        pivot = ranked[cursor]
        tail = ranked[cursor + 1 :]
        culled = (tail >= pivot).all(axis=1) & (tail > pivot).any(axis=1)
        if culled.any():
            keep = ~culled
            ranked = np.concatenate([ranked[: cursor + 1], tail[keep]])
            order = np.concatenate([order[: cursor + 1], order[cursor + 1 :][keep]])
        cursor += 1
    return [int(index) for index in order]


def _skyline_2d_numpy(matrix) -> List[int]:
    """Indices of the 2-objective non-dominated set, vectorised.

    Sort by (x, y); within an equal-x run the first y is the run minimum, and
    a point survives iff it carries that minimum *and* beats the strictly
    smaller-x prefix's best y (ties across runs lose: the earlier point
    weakly dominates).  Exact duplicates of a surviving point share its y and
    run, so all of them survive — the same tie/duplicate semantics as
    :func:`_skyline_2d` and :func:`_dominates`.
    """
    if matrix.size == 0:
        return []
    np = _numpy()
    order = np.lexsort((matrix[:, 1], matrix[:, 0]))
    x = matrix[order, 0]
    y = matrix[order, 1]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    starts[1:] = x[1:] != x[:-1]
    run_ids = np.cumsum(starts) - 1
    run_min = y[starts]  # first y of each equal-x run is its minimum
    prefix_best = np.empty(len(run_min))
    prefix_best[0] = np.inf
    if len(run_min) > 1:
        prefix_best[1:] = np.minimum.accumulate(run_min)[:-1]
    keep = (y == run_min[run_ids]) & (y < prefix_best[run_ids])
    return [int(index) for index in order[keep]]


def _objective_columns(
    points: Sequence[Any], objectives: Sequence[str]
) -> Sequence[Sequence[float]]:
    """One column of objective values per name, each in input order.

    A point class may offer a batch form, ``objective_columns(points,
    names)`` (:class:`repro.sweep.store.SweepRow` reads its record dicts in
    one pass per column); it returns the values :meth:`objective` would or
    ``None`` to decline.  Otherwise every point is asked :meth:`objective`
    per name, point by point, so the first failing point raises.
    """
    for first in points:
        batch = getattr(type(first), "objective_columns", None)
        columns = batch(points, objectives) if batch is not None else None
        if columns is not None:
            return columns
        break
    vectors = [tuple(point.objective(name) for name in objectives) for point in points]
    return list(zip(*vectors)) if vectors else [() for _ in objectives]


def pareto_front(
    points: Sequence[Any],
    objectives: Sequence[str],
    on_nan: str = "exclude",
) -> List[Any]:
    """The non-dominated subset of ``points`` under the named objectives.

    Accepts any objects exposing ``objective(name) -> float``
    (:class:`repro.sweep.store.SweepRow` values are read from the records a
    column at a time).  Uses a sort-based skyline: O(n log n) for two
    objectives, divide and conquer (vectorised with numpy on large inputs)
    otherwise.  The result preserves input order.

    NaN objective values have no place in a domination order (every NaN
    comparison is false, so a NaN-bearing point both escapes domination and
    poisons single-objective ``min`` in input-order-dependent ways).  They
    are handled up front, identically for every objective count:

    * ``on_nan="exclude"`` (default): points with any NaN objective are
      dropped from consideration with a :class:`RuntimeWarning`.
    * ``on_nan="raise"``: a NaN objective raises :class:`ValueError`.
    """
    if not objectives:
        raise ValueError("at least one objective is required")
    if on_nan not in ("exclude", "raise"):
        raise ValueError(f"on_nan must be 'exclude' or 'raise', got {on_nan!r}")
    columns = _objective_columns(points, objectives)
    count = len(columns[0])
    # Large multi-objective inputs go through numpy end to end: the NaN
    # screen and the skyline share one matrix instead of re-walking python
    # tuples (the culling skyline is k-agnostic, so k == 2 qualifies too).
    np = _numpy() if len(objectives) >= 2 and count >= _NUMPY_MIN_POINTS else None
    vectorised = np is not None
    if vectorised:
        matrix = np.array(columns, dtype=float).T
        index_map = np.flatnonzero(~np.isnan(matrix).any(axis=1))
        dropped = count - len(index_map)
    else:
        all_vectors = list(zip(*columns))
        indexes = [
            index
            for index, vector in enumerate(all_vectors)
            if not any(value != value for value in vector)
        ]
        dropped = count - len(indexes)
    if dropped:
        if on_nan == "raise":
            raise ValueError(
                f"{dropped} of {count} points have NaN values under "
                f"objectives {list(objectives)}"
            )
        warnings.warn(
            f"pareto_front: excluding {dropped} of {count} points "
            f"with NaN objective values",
            RuntimeWarning,
            stacklevel=2,
        )
    if vectorised:
        clean = matrix if not dropped else matrix[index_map]
        if len(objectives) == 2:
            survivors = _skyline_2d_numpy(clean)
        else:
            survivors = _skyline_numpy(clean)
        keep = {int(index) for index in index_map[survivors]}
        return [point for index, point in enumerate(points) if index in keep]
    vectors = [all_vectors[index] for index in indexes]
    if not vectors:
        return []
    if len(objectives) == 1:
        best = min(vector[0] for vector in vectors)
        keep = {
            index for index, vector in zip(indexes, vectors) if vector[0] == best
        }
    else:
        if len(objectives) == 2:
            survivors = _skyline_2d(vectors)
        else:
            order = sorted(range(len(vectors)), key=lambda i: vectors[i])
            survivors = _skyline_divide(order, vectors)
        keep = {indexes[survivor] for survivor in survivors}
    return [point for index, point in enumerate(points) if index in keep]


def front_delta(
    previous: Iterable[Any], current: Iterable[Any]
) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
    """``(entered, left)`` members between two Pareto-front snapshots.

    Snapshots are iterables of hashable front-member identities (scenario
    ids, labels, objective tuples — whatever the caller tracks fronts by).
    ``entered`` lists current members absent from the previous snapshot and
    ``left`` the previous members no longer present, each preserving its
    snapshot's order.  The adaptive search strategies
    (:mod:`repro.search.strategies`) spend evaluation batches only where
    the front moved, and stop when it stalls — both decisions reduce to
    this delta.
    """
    previous = tuple(previous)
    current = tuple(current)
    previous_set = set(previous)
    current_set = set(current)
    entered = tuple(member for member in current if member not in previous_set)
    left = tuple(member for member in previous if member not in current_set)
    return entered, left


def front_moved(previous: Iterable[Any], current: Iterable[Any]) -> bool:
    """True when the front changed between two snapshots (any churn)."""
    entered, left = front_delta(previous, current)
    return bool(entered or left)
