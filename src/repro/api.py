"""The documented public entry point: one :class:`Session` for everything.

A :class:`Session` binds an estimator configuration and an execution policy
(jobs, multiprocessing context) once, and exposes the three things users do
with the library behind typed results:

* :meth:`Session.estimate` — one system, full
  :class:`~repro.core.results.SystemCarbonReport`;
* :meth:`Session.sweep` — a declarative scenario grid, evaluated on the
  compiled batch engine, returning a :class:`SweepResult`;
* :meth:`Session.explore` — exhaustive node (× packaging) search with a
  Pareto front, returning an :class:`ExploreResult`; it is a sweep over
  one base system, so its rows are sweep records.

Every call accepts registered-axis ``overrides`` (:mod:`repro.axes`), so
any estimator knob — wafer diameter, defect density, router spec, operating
conditions, or an out-of-tree axis — is one mapping away::

    from repro import Session

    session = Session(jobs=4)
    report = session.estimate("ga102-3chiplet",
                              overrides={"wafer_diameter_mm": 300.0})
    result = session.sweep({
        "testcases": ["ga102-3chiplet"],
        "wafer_diameter_mm": [300, 450],
        "defect_density_scale": [1.0, 1.5],
        "lifetimes": [2, 6],
    })
    print(result.best["total_carbon_g"])
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.axes import (
    apply_system_overrides,
    axis_names,
    config_overrides_signature,
    validate_overrides,
)
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.core.explorer import pareto_front
from repro.core.results import SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.search import SearchResult, SearchSpec, run_search
from repro.sweep.block import RecordBlock, RecordSequence
from repro.sweep.engine import (
    Record,
    SweepEngine,
    SweepSummary,
    check_objectives,
    derive_scenario_config,
)
from repro.sweep.spec import SweepSpec
from repro.sweep.store import SweepRow, open_store, rows_from_records
from repro.technology.nodes import TechnologyTable
from repro.testcases.registry import get_testcase

__all__ = [
    "ExploreResult",
    "SearchResult",
    "SearchSpec",
    "Session",
    "SweepResult",
]


#: What :meth:`Session.estimate` accepts as a system: a built system, a
#: testcase name, or a design-directory path.
SystemLike = Union[ChipletSystem, str, Path]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Typed outcome of :meth:`Session.sweep`.

    Attributes:
        spec: The (expanded-from) sweep spec.
        summary: Engine summary — counts, timing, best record.
        records: Every flattened record as a read-only sequence (empty
            when the sweep ran with ``collect_records=False``): a resumed
            store's records first, in store order, then the new ones in
            scenario order, as the store holds them after the run.  It
            keeps the engine's record blocks
            (:class:`~repro.sweep.block.RecordSequence`) and builds a
            record's dict each time it is read, so setting a key of a
            record read from it changes nothing held here.  It compares
            equal to a tuple of the same records.
    """

    spec: SweepSpec
    summary: SweepSummary
    records: Sequence[Record] = ()

    @property
    def best(self) -> Optional[Record]:
        """Record with the lowest ``total_carbon_g``."""
        return self.summary.best

    def rows(self) -> List[SweepRow]:
        """Records wrapped for the Pareto/objective tooling."""
        return rows_from_records(self.records)

    def pareto(
        self, objectives: Sequence[str], on_nan: str = "exclude"
    ) -> List[SweepRow]:
        """Pareto-optimal rows under the named record metrics.

        ``on_nan`` has :func:`repro.core.explorer.pareto_front` semantics:
        ``"exclude"`` (default) drops NaN-bearing rows with a warning,
        ``"raise"`` errors on them — the same defined NaN behaviour the
        serve layer's ``/pareto`` endpoint exposes.
        """
        return pareto_front(self.rows(), objectives, on_nan=on_nan)


@dataclasses.dataclass(frozen=True)
class ExploreResult:
    """Typed outcome of :meth:`Session.explore`.

    Attributes:
        points: One row per evaluated candidate, in enumeration order: the
            sweep records behind the :class:`~repro.sweep.store.SweepRow`
            objective protocol.  For a candidate's full
            :class:`~repro.core.results.SystemCarbonReport`, call
            :meth:`Session.estimate`.
        front: Pareto-optimal subset of ``points`` under ``objectives``.
        objectives: Objectives the front was computed under.
    """

    points: Tuple[SweepRow, ...]
    front: Tuple[SweepRow, ...]
    objectives: Tuple[str, ...]

    @property
    def best(self) -> SweepRow:
        """Single best point under the first objective.

        Ties resolve by point label (not enumeration order), so equal-valued
        candidates name the same winner for every jobs count.
        """
        objective = self.objectives[0]
        return min(self.points, key=lambda p: (p.objective(objective), p.label))


def check_backend(backend: Optional[str]) -> None:
    """Validate :class:`Session`'s deprecated ``backend`` option, which
    selects nothing.

    Every sweep runs on the compiled batch engine.  ``"batch"`` is accepted
    silently, ``"scalar"`` with a :class:`DeprecationWarning`, and anything
    else raises :class:`ValueError`.
    """
    if backend is None or backend == "batch":
        return
    if backend != "scalar":
        raise ValueError(
            f"unknown backend {backend!r}; known backends: ['scalar', 'batch']"
        )
    warnings.warn(
        "backend='scalar' is deprecated and ignored: every sweep runs on the "
        "compiled batch engine, whose records are identical",
        DeprecationWarning,
        stacklevel=3,
    )


class Session:
    """Facade unifying estimate / sweep / explore behind one object.

    Args:
        config: Estimator configuration shared by every call (axis
            ``overrides`` derive per-call configs from it).
        table: Technology table override.
        jobs: Worker processes for sweeps and exploration (``1`` = serial).
        backend: Deprecated and ignored; ``"scalar"`` warns
            (:func:`check_backend`).
        include_cost: Add ``cost_usd`` to sweep and explore records.
        mp_context: Multiprocessing start method for worker pools.
        batch_estimator: Optional shared
            :class:`repro.fastpath.BatchEstimator` (``jobs=1`` only) so a
            long-lived process keeps one compiled-template cache across
            sessions and requests.
        compile_cache: Persistent on-disk compile cache — a directory path
            or a
            :class:`repro.fastpath.DiskCompileCache` — mounted on the
            sweep engine (and its worker processes when ``jobs>1``), so
            compiled templates survive across processes and runs.
            Mutually exclusive with ``batch_estimator``.
        resilience: Optional
            :class:`~repro.resilience.ResiliencePolicy` — contain
            per-scenario failures as structured error records (or retry
            them), supervise worker pools, and bound hung scenarios.
            ``None`` keeps the historical fail-fast behaviour.
        chaos: Optional :class:`~repro.resilience.ChaosPlan` injecting
            deterministic faults (tests only).

    Raises:
        ValueError: invalid ``jobs``, ``backend`` or ``mp_context``.
    """

    def __init__(
        self,
        config: Optional[EstimatorConfig] = None,
        *,
        table: Optional[TechnologyTable] = None,
        jobs: int = 1,
        backend: Optional[str] = None,
        include_cost: bool = True,
        mp_context: Optional[str] = None,
        batch_estimator: Optional[Any] = None,
        compile_cache: Optional[Any] = None,
        resilience: Optional[Any] = None,
        chaos: Optional[Any] = None,
    ):
        if config is not None and not isinstance(config, EstimatorConfig):
            raise TypeError(
                f"config must be an EstimatorConfig, got {type(config).__name__}"
            )
        self.config = config if config is not None else EstimatorConfig()
        self.table = table
        self.include_cost = include_cost
        check_backend(backend)
        # The engine constructor validates jobs/mp_context eagerly.
        self.engine = SweepEngine(
            jobs=jobs,
            config=self.config,
            include_cost=include_cost,
            mp_context=mp_context,
            table=table,
            batch_estimator=batch_estimator,
            compile_cache=compile_cache,
            resilience=resilience,
            chaos=chaos,
        )
        self._estimators: Dict[Tuple[Optional[str], Optional[Tuple]], EcoChip] = {}

    # -- introspection ----------------------------------------------------------------
    @property
    def jobs(self) -> int:
        """Worker processes sweeps and exploration fan out over."""
        return self.engine.jobs

    def axes(self) -> List[str]:
        """Names of every registered sweep axis (built-in and plugins)."""
        return axis_names()

    # -- resolution helpers -----------------------------------------------------------
    def system(self, system: SystemLike) -> ChipletSystem:
        """Resolve a system reference: built system, testcase name or
        design-directory path."""
        if isinstance(system, ChipletSystem):
            return system
        if isinstance(system, Path) or (
            isinstance(system, str) and Path(system).is_dir()
        ):
            from repro.io.loaders import load_design_directory

            return load_design_directory(system).system
        if isinstance(system, str):
            return get_testcase(system)  # raises KeyError listing testcases
        raise TypeError(
            f"system must be a ChipletSystem, testcase name or design "
            f"directory, got {type(system).__name__}"
        )

    def _estimator(
        self, fab_source: Optional[str], overrides: Optional[Mapping[str, Any]]
    ) -> EcoChip:
        key = (fab_source, config_overrides_signature(overrides))
        estimator = self._estimators.get(key)
        if estimator is None:
            # Same scenario→config semantics as the sweep engine's
            # reference oracle, so estimate() matches sweep records bit for bit.
            config = derive_scenario_config(self.config, fab_source, overrides)
            estimator = EcoChip(config=config, table=self.table)
            self._estimators[key] = estimator
        return estimator

    # -- estimate ---------------------------------------------------------------------
    def estimate(
        self,
        system: SystemLike,
        *,
        overrides: Optional[Mapping[str, Any]] = None,
        fab_source: Optional[str] = None,
    ) -> SystemCarbonReport:
        """Full carbon report of one system.

        Args:
            system: Built system, testcase name or design directory.
            overrides: Registered-axis overrides (``{axis: value}``);
                system-target axes transform the system, config-target axes
                derive a per-call estimator configuration.
            fab_source: Energy source for fab, packaging and design (the
                same triple-override the sweep engine applies).
        """
        validate_overrides(overrides)
        resolved = apply_system_overrides(self.system(system), overrides)
        return self._estimator(fab_source, overrides).estimate(resolved)

    # -- sweep ------------------------------------------------------------------------
    def sweep(
        self,
        spec: Optional[Union[SweepSpec, Mapping[str, Any]]] = None,
        *,
        preset: Optional[str] = None,
        spec_file: Optional[Union[str, Path]] = None,
        out: Optional[Union[str, Path]] = None,
        resume: bool = False,
        progress: Optional[Any] = None,
        collect_records: bool = True,
        on_block: Optional[Callable[[RecordBlock], None]] = None,
    ) -> SweepResult:
        """Evaluate a scenario grid on this session's engine.

        Args:
            spec: A :class:`SweepSpec` or a spec dictionary (any registered
                axis name is a valid key).  Exactly one of ``spec``,
                ``preset`` and ``spec_file`` must be given.
            preset: Name of a built-in preset (``SweepSpec.preset``).
            spec_file: Path of a ``.json``/``.yaml`` spec file.
            out: Stream records to this store file as they compute.
            resume: Skip scenarios whose ids are already in ``out`` and
                append only the missing tail (requires ``out``).  The store
                is read once, by the engine.  A store written with the
                other ``include_cost`` setting raises :class:`ValueError`
                before any scenario is evaluated.
            progress: Optional ``(done, total)`` callback per new record.
            collect_records: Keep every record in the returned result
                (disable for huge grids streamed to ``out``).
            on_block: Optional callback invoked with every
                :class:`~repro.sweep.block.RecordBlock`, in order: a
                resumed store's records first (one-row blocks, in store
                order), then the new ones as they are computed.  Lets a
                caller fold rows (a top-N table, say) without keeping them.

        Returns:
            A :class:`SweepResult` with the spec, summary and records.
        """
        given = [value is not None for value in (spec, preset, spec_file)]
        if sum(given) != 1:
            raise ValueError(
                "exactly one of spec, preset or spec_file must be given"
            )
        if preset is not None:
            spec = SweepSpec.preset(preset)
        elif spec_file is not None:
            spec = SweepSpec.from_file(spec_file)
        elif isinstance(spec, Mapping):
            spec = SweepSpec.from_dict(spec)
        if not isinstance(spec, SweepSpec):
            raise TypeError(
                f"spec must be a SweepSpec or a spec mapping, got "
                f"{type(spec).__name__}"
            )
        if resume and out is None:
            raise ValueError("resume=True needs an out file to resume into")

        spec.count(self.table)  # a bad spec fails before the store opens
        blocks: List[RecordBlock] = []
        if collect_records and on_block is not None:
            def handler(block: RecordBlock) -> None:
                blocks.append(block)
                on_block(block)
        else:
            handler = blocks.append if collect_records else on_block
        store = open_store(out, append=resume) if out is not None else None
        try:
            summary = self.engine.run(
                spec,
                store=store,
                progress=progress,
                resume=(out if resume else None),
                on_block=handler,
            )
        finally:
            if store is not None:
                store.close()
        records = RecordSequence(blocks) if collect_records else ()
        return SweepResult(spec=spec, summary=summary, records=records)

    # -- search -----------------------------------------------------------------------
    def search(
        self,
        spec: Optional[Union[SearchSpec, Mapping[str, Any]]] = None,
        *,
        spec_file: Optional[Union[str, Path]] = None,
        out: Optional[Union[str, Path]] = None,
        resume: bool = False,
        progress: Optional[Any] = None,
    ) -> SearchResult:
        """Goal-driven adaptive search over a sweep grid (:mod:`repro.search`).

        Instead of enumerating a grid like :meth:`sweep`, a registered
        strategy (``random``, ``successive_halving``, ``pareto_refine``)
        spends an evaluation budget on the most promising candidates.  All
        evaluation routes through this session's engine — jobs, compile
        cache and resilience apply unchanged — and a fixed spec seed yields
        bit-identical candidate sequences and results for every jobs count.

        Args:
            spec: A :class:`repro.search.SearchSpec` or a spec dictionary
                (its ``space`` key is an ordinary sweep-spec mapping).
                Exactly one of ``spec`` and ``spec_file`` must be given.
            spec_file: Path of a ``.json``/``.yaml`` search-spec file.
            out: Stream every evaluated record (with its ``search_round``
                column) to this store.
            resume: Serve candidates already present in ``out`` from their
                stored rows and continue a killed search without
                re-spending budget (requires ``out``).
            progress: Optional ``(evaluations, budget)`` callback per round.

        Returns:
            A :class:`repro.search.SearchResult` — best point, Pareto
            front, per-round trajectory and evaluations spent vs the
            exhaustive grid size.
        """
        given = [value is not None for value in (spec, spec_file)]
        if sum(given) != 1:
            raise ValueError("exactly one of spec or spec_file must be given")
        if spec_file is not None:
            spec = SearchSpec.from_file(spec_file)
        elif isinstance(spec, Mapping):
            spec = SearchSpec.from_dict(spec)
        if not isinstance(spec, SearchSpec):
            raise TypeError(
                f"spec must be a SearchSpec or a spec mapping, got "
                f"{type(spec).__name__}"
            )
        if resume and out is None:
            raise ValueError("resume=True needs an out file to resume from")
        return run_search(
            spec, self.engine, out=out, resume=resume, progress=progress
        )

    # -- explore ----------------------------------------------------------------------
    def explore(
        self,
        system: Union[str, Path],
        node_choices: Sequence[float],
        *,
        packaging: Optional[Sequence[Union[str, Mapping[str, Any]]]] = None,
        objectives: Sequence[str] = ("total_carbon_g", "power_w"),
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> ExploreResult:
        """Exhaustive node (× packaging) design-space search + Pareto front.

        A sweep of one base system (:meth:`sweep`): every node assignment
        of ``node_choices``, times every packaging choice, under the
        ``overrides``, on this session's engine and jobs.

        Args:
            system: Testcase name or design directory.
            node_choices: Nodes each chiplet may be retargeted to.
            packaging: Optional packaging choices — registered names or
                config dicts (``{"type": ..., ...}``, a ``params`` key
                included).
            objectives: Numeric record columns the Pareto front minimises.
            overrides: Registered-axis overrides applied to every candidate
                (a one-value sweep axis each).

        Raises:
            KeyError: an objective that is not a numeric column of this
                session's records, before anything is evaluated.
            TypeError: a built system or packaging spec object.
        """
        objectives = tuple(objectives)
        check_objectives(objectives, self.include_cost)
        if not node_choices:
            raise ValueError("at least one node choice is required")
        if packaging is not None and not packaging:
            raise ValueError("packaging was given but empty")
        if isinstance(system, Path) or (isinstance(system, str) and Path(system).is_dir()):
            base = {"design_dirs": [str(system)]}
        elif isinstance(system, str):
            base = {"testcases": [system]}
        else:
            raise TypeError(
                f"explore takes a testcase name or a design directory, got "
                f"{type(system).__name__}; estimate a built system with "
                f"Session.estimate"
            )
        validate_overrides(overrides)
        config: Dict[str, Any] = {name: [value] for name, value in (overrides or {}).items()}
        config.update(
            base, name="explore", nodes=list(node_choices), packaging=list(packaging or ())
        )
        spec = SweepSpec.from_dict(config)
        points = tuple(rows_from_records(self.sweep(spec).records))
        return ExploreResult(
            points=points,
            front=tuple(pareto_front(points, objectives)),
            objectives=objectives,
        )
