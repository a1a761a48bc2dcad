"""Carbon-aware design-space exploration (Section VI of the paper).

The paper's closing argument is that carbon should be a *first-order
optimisation metric* alongside performance, power, area and cost.  This
module provides the search machinery for that: enumerate candidate designs
(node assignments and/or packaging architectures), evaluate each with the
ECO-CHIP estimator (and optionally the dollar-cost model), and extract the
Pareto-optimal set under user-selected objectives.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # optional: vectorises pareto_front on large inputs (the [fast] extra)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the reference env
    _np = None

from repro.core.disaggregation import all_node_configurations
from repro.core.estimator import EcoChip
from repro.core.results import SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.cost.model import ChipletCostModel, CostReport
from repro.packaging.registry import PackagingSpec

#: Objective extractors available by name.  Every objective is minimised.
OBJECTIVES: Dict[str, Callable[["DesignPoint"], float]] = {
    "total_carbon_g": lambda p: p.carbon.total_cfp_g,
    "embodied_carbon_g": lambda p: p.carbon.embodied_cfp_g,
    "manufacturing_carbon_g": lambda p: p.carbon.manufacturing_cfp_g,
    "operational_carbon_g": lambda p: p.carbon.operational_cfp_g,
    "silicon_area_mm2": lambda p: p.carbon.total_silicon_area_mm2,
    "package_area_mm2": lambda p: p.carbon.packaging.package_area_mm2,
    "power_w": lambda p: p.carbon.operational.energy.total_power_w,
    "cost_usd": lambda p: p.cost.total_cost_usd if p.cost is not None else float("inf"),
}


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One evaluated candidate of the design space.

    Attributes:
        system: The candidate system.
        carbon: ECO-CHIP carbon report.
        cost: Optional dollar-cost report (present when the explorer was
            built with ``include_cost=True``).
    """

    system: ChipletSystem
    carbon: SystemCarbonReport
    cost: Optional[CostReport] = None

    @property
    def label(self) -> str:
        """Readable identifier: node tuple + packaging architecture."""
        nodes = ",".join(f"{int(n)}" for n in self.carbon.node_configuration)
        return f"({nodes})/{self.carbon.packaging.architecture}"

    def objective(self, name: str) -> float:
        """Value of the named objective (smaller is better)."""
        try:
            extractor = OBJECTIVES[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown objective {name!r}; known objectives: {sorted(OBJECTIVES)}"
            ) from exc
        return extractor(self)


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
    matrix = _np.asarray(vectors, dtype=float)
    if matrix.size == 0:  # an empty list collapses to shape (0,): no lexsort keys
        return []
    # lexsort keys run last-to-first; reversed rows of the transpose sort
    # by objective 0 first, matching sorted(tuple) in the python skylines.
    order = _np.lexsort(matrix.T[::-1])
    ranked = matrix[order]
    cursor = 0
    while cursor < len(ranked):
        pivot = ranked[cursor]
        tail = ranked[cursor + 1 :]
        culled = (tail >= pivot).all(axis=1) & (tail > pivot).any(axis=1)
        if culled.any():
            keep = ~culled
            ranked = _np.concatenate([ranked[: cursor + 1], tail[keep]])
            order = _np.concatenate([order[: cursor + 1], order[cursor + 1 :][keep]])
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
    order = _np.lexsort((matrix[:, 1], matrix[:, 0]))
    x = matrix[order, 0]
    y = matrix[order, 1]
    starts = _np.empty(len(order), dtype=bool)
    starts[0] = True
    starts[1:] = x[1:] != x[:-1]
    run_ids = _np.cumsum(starts) - 1
    run_min = y[starts]  # first y of each equal-x run is its minimum
    prefix_best = _np.empty(len(run_min))
    prefix_best[0] = _np.inf
    if len(run_min) > 1:
        prefix_best[1:] = _np.minimum.accumulate(run_min)[:-1]
    keep = (y == run_min[run_ids]) & (y < prefix_best[run_ids])
    return [int(index) for index in order[keep]]


def pareto_front(
    points: Sequence["DesignPoint"],
    objectives: Sequence[str],
    on_nan: str = "exclude",
) -> List["DesignPoint"]:
    """The non-dominated subset of ``points`` under the named objectives.

    Accepts any objects exposing ``objective(name) -> float`` (both
    :class:`DesignPoint` and :class:`repro.sweep.store.SweepRow`).  Uses a
    sort-based skyline: O(n log n) for two objectives, divide and conquer
    (vectorised with numpy on large inputs) otherwise.  The result preserves
    input order.

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
    all_vectors = [tuple(point.objective(name) for name in objectives) for point in points]
    # Large multi-objective inputs go through numpy end to end: the NaN
    # screen and the skyline share one matrix instead of re-walking python
    # tuples (the culling skyline is k-agnostic, so k == 2 qualifies too).
    vectorised = _np is not None and len(objectives) >= 2 and len(all_vectors) >= _NUMPY_MIN_POINTS
    if vectorised:
        matrix = _np.asarray(all_vectors, dtype=float)
        index_map = _np.flatnonzero(~_np.isnan(matrix).any(axis=1))
        dropped = len(all_vectors) - len(index_map)
    else:
        indexes = [
            index
            for index, vector in enumerate(all_vectors)
            if not any(value != value for value in vector)
        ]
        dropped = len(all_vectors) - len(indexes)
    if dropped:
        if on_nan == "raise":
            raise ValueError(
                f"{dropped} of {len(all_vectors)} points have NaN values under "
                f"objectives {list(objectives)}"
            )
        warnings.warn(
            f"pareto_front: excluding {dropped} of {len(all_vectors)} points "
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


class DesignSpaceExplorer:
    """Enumerates and evaluates chiplet design spaces.

    Args:
        estimator: ECO-CHIP estimator to use (a default one is built).
        include_cost: Also evaluate the dollar-cost model for every point.
    """

    def __init__(
        self,
        estimator: Optional[EcoChip] = None,
        include_cost: bool = False,
    ):
        self.estimator = estimator if estimator is not None else EcoChip()
        self.cost_model = ChipletCostModel(table=self.estimator.table) if include_cost else None

    # -- evaluation -----------------------------------------------------------------
    def evaluate(self, system: ChipletSystem) -> DesignPoint:
        """Evaluate one candidate system."""
        carbon = self.estimator.estimate(system)
        cost = self.cost_model.estimate(system) if self.cost_model is not None else None
        return DesignPoint(system=system, carbon=carbon, cost=cost)

    def evaluate_many(
        self,
        systems: Sequence[ChipletSystem],
        jobs: int = 1,
        chunk_size: Optional[int] = None,
    ) -> List[DesignPoint]:
        """Evaluate many candidate systems, optionally across processes.

        Delegates to the sweep engine
        (:func:`repro.sweep.engine.evaluate_systems`): ``jobs=1`` runs
        serially, ``jobs>1`` shards the candidates over worker processes.  Results are returned
        in input order and are identical for any ``jobs`` value.
        """
        from repro.sweep.engine import evaluate_systems  # deferred: avoids an import cycle

        return evaluate_systems(
            systems,
            config=self.estimator.config,
            table=self.estimator.table,
            include_cost=self.cost_model is not None,
            jobs=jobs,
            chunk_size=chunk_size,
        )

    def explore(
        self,
        system: ChipletSystem,
        node_choices: Sequence[float],
        packaging_choices: Optional[Iterable[PackagingSpec]] = None,
        jobs: int = 1,
    ) -> List[DesignPoint]:
        """Evaluate every node assignment (and optionally packaging choice).

        The search is exhaustive: ``len(node_choices) ** chiplet_count``
        node assignments times the number of packaging choices.  For the
        paper-scale problems (3 chiplets, 3–4 nodes, 5 packages) this is a
        few hundred estimator calls and runs in seconds; larger spaces can
        be fanned out over ``jobs`` worker processes.
        """
        if not node_choices:
            raise ValueError("at least one node choice is required")
        packagings: List[Optional[PackagingSpec]] = (
            list(packaging_choices) if packaging_choices is not None else [None]
        )
        if not packagings:
            raise ValueError("packaging_choices was given but empty")

        candidates = []
        for nodes in all_node_configurations(node_choices, system.chiplet_count):
            candidate = system.with_nodes(*nodes)
            for packaging in packagings:
                candidates.append(
                    candidate.with_packaging(packaging) if packaging is not None else candidate
                )
        if jobs == 1:
            return [self.evaluate(variant) for variant in candidates]
        return self.evaluate_many(candidates, jobs=jobs)

    # -- selection -------------------------------------------------------------------
    def best(
        self,
        points: Sequence[DesignPoint],
        objective: str = "total_carbon_g",
        constraints: Optional[Dict[str, float]] = None,
    ) -> DesignPoint:
        """The single best point under ``objective``, subject to upper-bound
        ``constraints`` on other objectives (e.g. ``{"power_w": 10.0}``).

        Raises:
            ValueError: when no point satisfies the constraints.
        """
        constraints = constraints or {}
        feasible = [
            point
            for point in points
            if all(point.objective(name) <= bound for name, bound in constraints.items())
        ]
        if not feasible:
            raise ValueError("no design point satisfies the given constraints")
        # Ties on the objective resolve by label, not iteration order, so
        # equal-valued candidates pick the same winner however the caller
        # enumerated them (pareto_refine seeds its neighbourhood from best).
        return min(
            feasible, key=lambda point: (point.objective(objective), point.label)
        )

    def pareto(
        self,
        points: Sequence[DesignPoint],
        objectives: Sequence[str],
        on_nan: str = "exclude",
    ) -> List[DesignPoint]:
        """Pareto-optimal subset of ``points`` (delegates to :func:`pareto_front`).

        ``on_nan`` has :func:`pareto_front` semantics: ``"exclude"`` drops
        NaN-bearing points with a warning, ``"raise"`` errors on them.
        """
        return pareto_front(points, objectives, on_nan=on_nan)

    def summarise(
        self, points: Sequence[DesignPoint], objectives: Sequence[str]
    ) -> List[Tuple[str, Dict[str, float]]]:
        """(label, {objective: value}) rows, sorted by the first objective."""
        rows = [
            (point.label, {name: point.objective(name) for name in objectives})
            for point in points
        ]
        rows.sort(key=lambda row: row[1][objectives[0]])
        return rows
