"""Pluggable search strategies and the context they observe.

A strategy is a *generator of candidate batches*: ``batches(context)``
yields lists of grid indices to evaluate next, and between yields the
runner feeds the results back through the shared :class:`SearchContext`.
Everything a strategy may base decisions on lives in that context — the
spec, the grid space, the evaluated records with their weighted costs, and
the current Pareto front — so a strategy's proposals are a pure function of
(seed, results so far).  That is what makes searches deterministic *and*
resumable: replaying the same results in the same order reproduces the
same proposals, whether the results come from live evaluation or from a
killed run's store.

Strategies must draw randomness only from ``random.Random(context.spec.seed)``
instances they create themselves, and must yield index batches in sorted
order; both are required for the bit-identical-across-jobs guarantee.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.explorer import front_delta, pareto_front

__all__ = [
    "SearchContext",
    "Strategy",
    "ParetoRefineStrategy",
    "RandomStrategy",
    "SuccessiveHalvingStrategy",
    "get_strategy",
    "register_strategy",
    "strategy_names",
]


class _FrontPoint:
    """Minimal ``objective(name)`` adapter for :func:`pareto_front`."""

    __slots__ = ("index", "record")

    def __init__(self, index: int, record: Mapping[str, Any]):
        self.index = index
        self.record = record

    def objective(self, name: str) -> float:
        return float(self.record[name])


class SearchContext:
    """Deterministic shared state between the runner and a strategy.

    Attributes:
        spec: The :class:`~repro.search.spec.SearchSpec` being executed.
        space: The :class:`~repro.search.space.GridSpace` candidates come
            from.
        records: ``{grid index: record}`` of every evaluated candidate.
        scores: ``{grid index: weighted cost}``; ``inf`` marks error
            records, missing metrics and constraint violations.
        front: Sorted grid indices of the current Pareto front over the
            spec's objective metrics (feasible records only).
        round: Batches ingested so far (== the next batch's
            ``search_round`` stamp).
        best_index: Grid index of the lowest-cost feasible record (ties
            resolve to the smallest index), ``None`` until one exists.
        best_score: Weighted cost of ``best_index`` (``inf`` until one
            exists).
    """

    def __init__(self, spec: Any, space: Any):
        self.spec = spec
        self.space = space
        self.records: Dict[int, Mapping[str, Any]] = {}
        self.scores: Dict[int, float] = {}
        self.front: Tuple[int, ...] = ()
        self.round = 0
        self.best_index: Optional[int] = None
        self.best_score = float("inf")

    # -- queries strategies build proposals from --------------------------------------
    def unevaluated(self, indices: Sequence[int]) -> List[int]:
        """The subset of ``indices`` not evaluated yet, sorted and unique."""
        return sorted({index for index in indices if index not in self.records})

    def top_of(self, pool: Sequence[int], count: int) -> List[int]:
        """The ``count`` lowest-cost feasible members of ``pool``.

        Ordered (and tie-broken) by ``(weighted cost, grid index)``, so the
        ranking is identical for every jobs count.  Infeasible
        members never rank.
        """
        ranked = sorted(
            (index for index in pool if self.scores.get(index, float("inf")) < float("inf")),
            key=lambda index: (self.scores[index], index),
        )
        return ranked[:count]

    # -- runner side ------------------------------------------------------------------
    def ingest(
        self, batch_records: Mapping[int, Mapping[str, Any]]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Absorb one evaluated batch; returns the front's ``(entered, left)``."""
        for index in sorted(batch_records):
            record = batch_records[index]
            score = self.spec.score(record)
            self.records[index] = record
            self.scores[index] = score
            if score < float("inf") and (
                score < self.best_score
                or (
                    score == self.best_score
                    and (self.best_index is None or index < self.best_index)
                )
            ):
                self.best_score = score
                self.best_index = index
        previous = self.front
        self.front = self._compute_front()
        self.round += 1
        return front_delta(previous, self.front)

    def _compute_front(self) -> Tuple[int, ...]:
        metrics = self.spec.metric_names
        points = [
            _FrontPoint(index, self.records[index])
            for index in sorted(self.records)
            if self.scores[index] < float("inf")
        ]
        if not points:
            return ()
        # Feasible records carry finite values for every objective metric
        # (score() already screened NaN/missing), so no NaN handling fires.
        return tuple(point.index for point in pareto_front(points, metrics))


def _chunks(indices: Sequence[int], size: int) -> Iterator[List[int]]:
    for start in range(0, len(indices), size):
        yield list(indices[start : start + size])


class RandomStrategy:
    """Seeded uniform sampling without replacement — the baseline.

    Draws ``min(budget, grid size)`` distinct indices up front from
    ``Random(seed)`` and yields them in draw order, batch by batch.
    """

    name = "random"

    def batches(self, context: SearchContext) -> Iterator[List[int]]:
        spec = context.spec
        rng = random.Random(spec.seed)
        count = min(spec.budget, context.space.size)
        order = rng.sample(range(context.space.size), count)
        for chunk in _chunks(order, spec.batch_size):
            yield sorted(chunk)


class SuccessiveHalvingStrategy:
    """Cheap-rung sampling, then promote survivors into their neighbourhoods.

    Rung 0 spends roughly half the budget on a seeded uniform sample of the
    grid.  Each later rung keeps the top ``1/eta`` of the previous pool by
    weighted cost and proposes the unevaluated numeric-axis neighbours of
    those survivors; the search descends toward the optimum while the pool
    shrinks geometrically.  Stops when no survivor has an unevaluated
    neighbour (the runner additionally enforces the budget).
    """

    name = "successive_halving"

    #: Pool shrink factor between rungs.
    eta = 4

    def batches(self, context: SearchContext) -> Iterator[List[int]]:
        spec, space = context.spec, context.space
        rng = random.Random(spec.seed)
        rung_size = min(space.size, max(spec.batch_size, spec.budget // 2))
        pool = sorted(rng.sample(range(space.size), rung_size))
        yield from _chunks(pool, spec.batch_size)
        while True:
            # The runner may have truncated the tail of a rung at the
            # budget; rank only what actually evaluated.
            evaluated_pool = [index for index in pool if index in context.records]
            survivors = context.top_of(
                evaluated_pool, max(1, len(evaluated_pool) // self.eta)
            )
            if not survivors:
                return
            proposals = context.unevaluated(
                [
                    neighbour
                    for survivor in survivors
                    for neighbour in space.neighbors(survivor)
                ]
            )
            if not proposals:
                return
            yield from _chunks(proposals, spec.batch_size)
            pool = survivors + [
                index for index in proposals if index in context.records
            ]


class ParetoRefineStrategy:
    """Zoom the numeric-axis neighbourhood of moving Pareto-front members.

    After a seeded exploration round (about half the budget), each round
    proposes the unevaluated neighbours of the front members that *entered*
    since the last round — batches are spent only where the front moved.
    When a round leaves the front unchanged the proposal ring widens by one
    step per stalled round (escape distance), and after ``stall_rounds``
    churn-free rounds the search stops early, returning the budget it did
    not need.
    """

    name = "pareto_refine"

    def batches(self, context: SearchContext) -> Iterator[List[int]]:
        spec, space = context.spec, context.space
        rng = random.Random(spec.seed)
        seed_size = min(space.size, max(spec.batch_size, spec.budget // 2))
        yield from _chunks(sorted(rng.sample(range(space.size), seed_size)), spec.batch_size)
        known: Tuple[int, ...] = ()
        stalled = 0
        while True:
            entered, left = front_delta(known, context.front)
            known = context.front
            if entered or left:
                stalled = 0
            else:
                stalled += 1
                if stalled >= spec.stall_rounds:
                    return
            seeds = entered if entered else known
            if not seeds:
                return
            proposals = context.unevaluated(space.ring(seeds, 1 + stalled))
            if not proposals:
                return
            yield from _chunks(proposals, spec.batch_size)


#: Registered strategy factories by name.
_STRATEGIES: Dict[str, Callable[[], Any]] = {
    RandomStrategy.name: RandomStrategy,
    SuccessiveHalvingStrategy.name: SuccessiveHalvingStrategy,
    ParetoRefineStrategy.name: ParetoRefineStrategy,
}

#: The protocol type, importable for annotations/registration.
Strategy = Any


def register_strategy(name: str, factory: Callable[[], Any]) -> None:
    """Register an out-of-tree strategy factory under ``name``.

    The factory must return an object with a ``batches(context)`` generator
    method honouring the determinism contract in the module docstring.
    Re-registering a name replaces the previous factory.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"strategy name must be a non-empty string, got {name!r}")
    _STRATEGIES[name] = factory


def get_strategy(name: str) -> Any:
    """Instantiate the named strategy.

    Raises:
        KeyError: unknown name, listing the registered strategies.
    """
    factory = _STRATEGIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown search strategy {name!r}; registered strategies: "
            f"{strategy_names()}"
        )
    return factory()


def strategy_names() -> List[str]:
    """Sorted names of every registered strategy."""
    return sorted(_STRATEGIES)
