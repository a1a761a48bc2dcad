"""Drive a strategy against the sweep engine, crash-safely.

The runner owns the loop between a strategy's proposal generator and the
evaluation machinery: every batch routes through
:meth:`repro.sweep.engine.SweepEngine.run` — so jobs>1, the compile cache
and resilience policies all apply to searches unchanged — and every record streams to the ordinary result store stamped
with a ``search_round`` column.

Resume is replay: because strategies are deterministic functions of
(seed, results so far), re-running a killed search proposes the same
batches in the same order, and any candidate already present in the store
is served from its stored row instead of re-evaluating.  The store a
resumed search leaves behind is byte-identical to the one an uninterrupted
run would have written, and budget already spent is never spent twice.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.search.space import GridSpace
from repro.search.spec import SearchSpec
from repro.search.strategies import SearchContext, get_strategy
from repro.sweep.engine import check_resume_columns
from repro.sweep.store import open_store, records_by_scenario, repair_torn_tail

__all__ = ["RoundStats", "SearchResult", "run_search"]

PathLike = Union[str, Path]
Record = Dict[str, Any]


@dataclasses.dataclass(frozen=True)
class RoundStats:
    """One evaluated batch of the search trajectory.

    Attributes:
        round_index: The batch's ``search_round`` stamp (0-based).
        proposed: Candidates the strategy proposed for this round.
        evaluated: Candidates evaluated live through the engine.
        replayed: Candidates served from a resumed store instead.
        best_score: Best (lowest) weighted cost seen so far.
        best_index: Grid index holding ``best_score`` (``None`` while every
            record is infeasible).
        front_size: Pareto-front size after the round.
        front_entered: Members that joined the front this round.
        front_left: Members that dropped off the front this round.
    """

    round_index: int
    proposed: int
    evaluated: int
    replayed: int
    best_score: float
    best_index: Optional[int]
    front_size: int
    front_entered: int
    front_left: int


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Typed outcome of a goal-driven search.

    Attributes:
        spec: The executed :class:`SearchSpec`.
        best: Record of the lowest-weighted-cost feasible point (``None``
            when every evaluated point was infeasible).
        best_score: Weighted cost of ``best`` (``inf`` when infeasible).
        front: Records of the final Pareto front, by ascending grid index.
        rounds: Per-round trajectory (:class:`RoundStats`).
        evaluations: Distinct candidates evaluated (replays included).
        new_evaluations: Candidates evaluated live in *this* run (what a
            resume actually spent).
        grid_size: Size of the exhaustive grid the search drew from.
        budget: Effective evaluation budget (spec budget capped at the
            grid size).
        elapsed_s: Wall-clock runtime of this run.
        store_path: Result store the evaluations streamed to, if any.
        jobs: Engine worker-process count.
    """

    spec: SearchSpec
    best: Optional[Record]
    best_score: float
    front: Tuple[Record, ...]
    rounds: Tuple[RoundStats, ...]
    evaluations: int
    new_evaluations: int
    grid_size: int
    budget: int
    elapsed_s: float
    store_path: Optional[str] = None
    jobs: int = 1

    @property
    def evaluated_fraction(self) -> float:
        """Evaluations spent as a fraction of the exhaustive grid."""
        return self.evaluations / self.grid_size if self.grid_size else 0.0

    @property
    def best_label(self) -> Optional[str]:
        """Compact identity of the best point (nodes/packaging/… columns)."""
        if self.best is None:
            return None
        from repro.sweep.store import SweepRow

        return SweepRow(self.best).label


def run_search(
    spec: SearchSpec,
    engine: Any,
    *,
    out: Optional[PathLike] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SearchResult:
    """Execute ``spec`` on ``engine``; the library core behind
    :meth:`repro.api.Session.search` and ``eco-chip search``.

    Args:
        spec: The search specification.
        engine: A configured :class:`repro.sweep.engine.SweepEngine`.
        out: Stream every evaluated record to this store (with a
            ``search_round`` column).  Required for ``resume``.
        resume: Replay candidates already present in ``out`` (torn tail
            repaired first) instead of re-evaluating them, then continue
            the search where it was killed.  Stored rows written with the
            other ``include_cost`` setting raise :class:`ValueError`
            before the store opens (:func:`check_resume_columns`).
        progress: Optional ``(evaluations so far, budget)`` callback per
            round.

    Returns:
        A :class:`SearchResult`.
    """
    if resume and out is None:
        raise ValueError("resume=True needs an out file to resume from")
    space = GridSpace(spec.space, engine.table)
    strategy = get_strategy(spec.strategy)
    context = SearchContext(spec, space)
    budget = min(spec.budget, space.size)

    stored: Dict[int, Record] = {}
    if resume:
        repair_torn_tail(out)
        stored = records_by_scenario(out)
        check_resume_columns(stored.values(), engine.include_cost, out)
    store = open_store(out, append=resume) if out is not None else None

    # In-process, mount one shared BatchEstimator for the whole search so
    # compiled templates stay warm across rounds (a fresh engine.run per
    # batch would otherwise recompile every round).
    restore_estimator = False
    if engine.jobs == 1 and engine.batch_estimator is None:
        from repro.fastpath import BatchEstimator

        engine.batch_estimator = BatchEstimator(
            config=engine.config,
            table=engine.table,
            include_cost=engine.include_cost,
            persistent_cache=engine.compile_cache,
        )
        restore_estimator = True

    rounds: List[RoundStats] = []
    new_evaluations = 0
    replayed_total = 0
    start = time.perf_counter()
    try:
        for proposed in strategy.batches(context):
            remaining = budget - len(context.records)
            if remaining <= 0:
                break
            batch = sorted(
                {index for index in proposed if index not in context.records}
            )[:remaining]
            if not batch:
                continue
            batch_records: Dict[int, Record] = {}
            fresh: List[int] = []
            for index in batch:
                record = stored.get(index)
                if record is not None:
                    batch_records[index] = record
                else:
                    fresh.append(index)
            if fresh:
                engine.run(
                    [space.scenario(index) for index in fresh],
                    store=store,
                    on_block=lambda block: batch_records.update(
                        (int(record["scenario"]), record) for record in block.records()
                    ),
                    annotate={"search_round": context.round},
                )
            round_index = context.round
            entered, left = context.ingest(batch_records)
            new_evaluations += len(fresh)
            replayed_total += len(batch) - len(fresh)
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    proposed=len(batch),
                    evaluated=len(fresh),
                    replayed=len(batch) - len(fresh),
                    best_score=context.best_score,
                    best_index=context.best_index,
                    front_size=len(context.front),
                    front_entered=len(entered),
                    front_left=len(left),
                )
            )
            if progress is not None:
                progress(len(context.records), budget)
    finally:
        if restore_estimator:
            engine.batch_estimator = None
        if store is not None:
            store.close()

    best = (
        dict(context.records[context.best_index])
        if context.best_index is not None
        else None
    )
    front = tuple(dict(context.records[index]) for index in context.front)
    return SearchResult(
        spec=spec,
        best=best,
        best_score=context.best_score,
        front=front,
        rounds=tuple(rounds),
        evaluations=len(context.records),
        new_evaluations=new_evaluations,
        grid_size=space.size,
        budget=budget,
        elapsed_s=time.perf_counter() - start,
        store_path=str(Path(out)) if out is not None else None,
        jobs=engine.jobs,
    )
