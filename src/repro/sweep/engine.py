"""Sharded, process-parallel evaluation of sweep scenarios.

The engine turns a sweep into flattened result records through the
compiled batch fast path (:mod:`repro.fastpath`).  Its unit is the template
group (:class:`repro.sweep.spec.TemplateGroup`): a spec enumerates its
groups directly, without one :class:`Scenario` per row, and an explicit
scenario list is grouped by template first.  Each template compiles once,
and every group evaluates as flat arithmetic.

* ``jobs=1`` runs the one evaluation loop (:func:`_evaluate_groups`)
  lazily in-process (deterministic, no pickling);
* ``jobs>1`` runs it in the workers of the one pool driver
  (:meth:`SweepEngine._run_chunks`) over chunks of whole template groups,
  so each template compiles in exactly one worker, and streams each
  chunk's rows as soon as it and every earlier chunk are done, with or
  without a resilience policy.  Records are re-emitted in input order,
  so the record stream — and therefore every total — is bit-identical to
  the in-process path.

Either way a template group travels as one record block
(:class:`repro.sweep.block.RecordBlock`) from the kernel through the
worker pipe and the in-order buffer to the store, which renders it and
writes it in one append; per-record dicts are built only for callers that
ask for them.

:func:`reference_records` is the engine's oracle: a serial loop through the
full :class:`~repro.core.estimator.EcoChip` pipeline with no caches and no
pool.  The parity tests require the engine to reproduce it bit for bit.

Out-of-tree packaging architectures *and* sweep axes work at any ``jobs``
value: every pool initializer receives the shared plugin-module snapshot
(:func:`repro.packaging.registry.plugin_modules`, which also records
:func:`repro.axes.register_axis` modules) and re-imports it in the worker
(:func:`repro.packaging.registry.import_plugin_modules`), so scenario
packaging dicts and axis overrides referencing plugins resolve in worker
processes under any multiprocessing start method — including ``spawn``,
where workers do not inherit the parent's registry state.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.axes import apply_config_overrides
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.core.results import SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.packaging.registry import import_plugin_modules, plugin_modules
from repro.resilience.policy import ResiliencePolicy, WorkerLostError
from repro.resilience.records import (
    ERROR_KEY,
    error_info,
    error_record,
    evaluate_contained,
)
from repro.sweep.block import RecordBlock
from repro.sweep.spec import Scenario, SweepSpec, TemplateGroup
from repro.sweep.store import (
    ResultStore,
    iter_records as _iter_store_records,
    repair_torn_tail,
)
from repro.technology.nodes import TechnologyTable

Record = Dict[str, Any]

#: Plugin-module snapshot shipped to worker initializers.
PluginModules = Tuple[Tuple[str, Optional[str]], ...]


# ---------------------------------------------------------------------------
# Scenario semantics and the reference oracle
# ---------------------------------------------------------------------------
def _source_name(source: Any) -> str:
    return str(getattr(source, "value", source))


def derive_scenario_config(
    base_config: EstimatorConfig,
    fab_source: Optional[str],
    overrides: Optional[Mapping[str, Any]] = None,
) -> EstimatorConfig:
    """The estimator configuration a scenario evaluates under.

    One definition of the scenario→config semantics, shared by
    :func:`reference_records` and :class:`repro.api.Session`: a scenario
    ``fab_source`` replaces all three energy sources, then config-target
    axis overrides (:mod:`repro.axes`) are applied on top.
    """
    config = base_config
    if fab_source is not None:
        config = dataclasses.replace(
            config,
            fab_carbon_source=fab_source,
            package_carbon_source=fab_source,
            design_carbon_source=fab_source,
        )
    return apply_config_overrides(config, overrides)


#: The metric columns of an evaluated record, in record order: what
#: :func:`make_record` writes, plus ``cost_usd`` when the sweep includes cost.
METRIC_COLUMNS = (
    "total_carbon_g",
    "embodied_carbon_g",
    "manufacturing_carbon_g",
    "design_carbon_g",
    "hi_carbon_g",
    "operational_carbon_g",
    "silicon_area_mm2",
    "package_area_mm2",
    "power_w",
    "cost_usd",
)

#: The numeric columns of an evaluated record, in record order: the names a
#: Pareto front can be taken over.
NUMERIC_COLUMNS = ("scenario", "lifetime_years", "system_volume") + METRIC_COLUMNS


def _run_columns(columns: Sequence[str], include_cost: bool) -> List[str]:
    """``columns`` as the records of a run carry them: without
    ``cost_usd`` unless the run includes cost."""
    return [name for name in columns if include_cost or name != "cost_usd"]


def check_objectives(objectives: Sequence[str], include_cost: bool) -> None:
    """Refuse objectives that are not numeric columns of a run's records.

    The rule of ``eco-chip sweep --pareto`` and
    :meth:`repro.api.Session.explore`, checked before anything is evaluated.

    Raises:
        ValueError: no objective is given.
        KeyError: naming the unknown objectives and the known columns.
    """
    known = _run_columns(NUMERIC_COLUMNS, include_cost)
    if not objectives:
        raise ValueError(f"no objectives given; known numeric record columns: {known}")
    unknown = [name for name in objectives if name not in known]
    if unknown:
        raise KeyError(f"unknown objectives {unknown}; known numeric record columns: {known}")


def make_record(
    scenario: Scenario,
    system: ChipletSystem,
    report: SystemCarbonReport,
    fab_source: str,
    cost_usd: Optional[float] = None,
) -> Record:
    """Flatten one evaluated scenario into a record of the result store.

    The numeric keys are :data:`NUMERIC_COLUMNS`, the names the Pareto
    tooling and search metrics read.  The batch engine
    (:meth:`repro.fastpath.batch.BatchEstimator.evaluate_block`) emits the
    same keys in the same order — keep the two in sync.
    """
    record = scenario.to_record()
    record.update(
        {
            "system": system.name,
            "nodes": [float(n) for n in report.node_configuration],
            "packaging": report.packaging.architecture,
            "fab_source": fab_source,
            "lifetime_years": report.operational.lifetime_years,
            "system_volume": system.system_volume,
            "total_carbon_g": report.total_cfp_g,
            "embodied_carbon_g": report.embodied_cfp_g,
            "manufacturing_carbon_g": report.manufacturing_cfp_g,
            "design_carbon_g": report.design_cfp_g,
            "hi_carbon_g": report.hi_cfp_g,
            "operational_carbon_g": report.operational_cfp_g,
            "silicon_area_mm2": report.total_silicon_area_mm2,
            "package_area_mm2": report.packaging.package_area_mm2,
            "power_w": report.operational.energy.total_power_w,
        }
    )
    if cost_usd is not None:
        record["cost_usd"] = cost_usd
    return record


def reference_records(
    scenarios: Union[SweepSpec, Iterable[Scenario]],
    config: Optional[EstimatorConfig] = None,
    table: Optional[TechnologyTable] = None,
    include_cost: bool = True,
) -> List[Record]:
    """Evaluate scenarios one by one through the full scalar pipeline.

    The reference oracle of :class:`SweepEngine`: per scenario, resolve the
    base system, build the scenario's system, run
    :meth:`EcoChip.estimate` under :func:`derive_scenario_config` and (with
    ``include_cost``) the dollar-cost model, then flatten with
    :func:`make_record`.  No caches, no compiled templates, no pool — the
    engine must reproduce these records exactly (``==``, bit for bit).
    """
    from repro.cost.model import ChipletCostModel

    if isinstance(scenarios, SweepSpec):
        scenarios = scenarios.expand(table)
    base_config = config if config is not None else EstimatorConfig()
    records: List[Record] = []
    for scenario in scenarios:
        system = scenario.build_system()  # resolves the base afresh
        scenario_config = derive_scenario_config(
            base_config, scenario.fab_source, scenario.overrides
        )
        report = EcoChip(config=scenario_config, table=table).estimate(system)
        cost_usd = (
            ChipletCostModel(table=table).estimate(system).total_cost_usd
            if include_cost
            else None
        )
        fab_source = (
            scenario.fab_source
            if scenario.fab_source is not None
            else _source_name(base_config.fab_carbon_source)
        )
        records.append(make_record(scenario, system, report, fab_source, cost_usd))
    return records


#: Worker-process batch estimator, resilience policy and chaos plan, one
#: each per worker (the policy and plan are ``None`` without resilience).
_EVALUATOR: Optional[Any] = None
_POLICY: Optional[ResiliencePolicy] = None
_CHAOS: Optional[Any] = None


def _init_worker(
    default_config: Optional[EstimatorConfig],
    include_cost: bool,
    plugins: PluginModules = (),
    table: Optional[TechnologyTable] = None,
    policy: Optional[ResiliencePolicy] = None,
    chaos: Optional[Any] = None,
    compile_cache: Optional[Any] = None,
) -> None:
    global _EVALUATOR, _POLICY, _CHAOS
    from repro.fastpath import BatchEstimator

    import_plugin_modules(plugins)
    # ``compile_cache`` mounts the persistent on-disk template cache in
    # every worker: the first worker to compile a template persists it for
    # its siblings (and for every later run against the same directory).
    _EVALUATOR = BatchEstimator(
        config=default_config,
        table=table,
        include_cost=include_cost,
        persistent_cache=compile_cache,
    )
    _POLICY = policy
    _CHAOS = chaos


#: ``(positions, block, retries)``: a block, the input positions of its
#: rows and the retry attempts its evaluation took.
PlacedBlock = Tuple[Sequence[int], RecordBlock, int]


def _one_row(position: int, record: Record, retries: int = 0) -> PlacedBlock:
    # Every value shared: each read copies the record's lists, as a read of
    # a kernel block copies ``nodes``.
    return [position], RecordBlock(record, (), [()]), retries


#: ``(positions, group)``: a template group and the input positions of its rows.
PlacedGroup = Tuple[Sequence[int], TemplateGroup]


def _evaluate_groups(
    groups: Iterable[PlacedGroup],
    estimator: Any,
    policy: Optional[ResiliencePolicy],
    chaos: Optional[Any] = None,
    in_worker: bool = False,
) -> Iterator[PlacedBlock]:
    """Evaluate placed template groups lazily, in order: the one loop.

    Without a policy each group evaluates at once into one block.  Under a
    containment policy each scenario evaluates individually through
    :meth:`BatchEstimator.evaluate_scenario` (same compiled-template cache,
    bit-identical records) into a one-row block that carries its retries,
    so one raising scenario costs its group nothing; an error record is a
    one-row block too.  ``in_worker`` lets chaos ``die`` faults end the
    worker process instead of raising.
    """
    for positions, group in groups:
        if policy is None:
            yield positions, estimator.evaluate_block(estimator.compile_for(group), group), 0
            continue
        for position, scenario in zip(positions, group.scenarios()):
            record, retries = evaluate_contained(
                estimator.evaluate_scenario, scenario, policy, chaos=chaos, in_worker=in_worker
            )
            yield _one_row(position, record, retries)


def _evaluate_chunk(groups: Sequence[PlacedGroup]) -> List[PlacedBlock]:
    """The pool's chunk worker: :func:`_evaluate_groups` over the worker's
    estimator, policy and chaos plan.

    Each worker keeps its :class:`repro.fastpath.BatchEstimator` (and its
    compiled-template caches) alive across chunks, so templates shared by
    chunks mapped to the same worker compile once.
    """
    assert _EVALUATOR is not None, "worker initializer did not run"
    return list(_evaluate_groups(groups, _EVALUATOR, _POLICY, _CHAOS, in_worker=True))


class _InOrder:
    """Re-emits placed blocks as runs of consecutive input positions.

    A block whose positions have gaps (a template group that is not
    contiguous in the input) is split at the gaps; a run is released once
    every earlier position has been released, so rows leave in input
    order.
    """

    def __init__(self) -> None:
        self._pending: Dict[int, RecordBlock] = {}
        self._next = 0

    def add(self, positions: Sequence[int], block: RecordBlock) -> List[RecordBlock]:
        """Buffer one placed block; return the runs now ready, in order."""
        pending = self._pending
        if positions[-1] - positions[0] == len(positions) - 1:
            if positions[0] == self._next and not pending:  # the usual case
                self._next += len(positions)
                return [block]
            pending[positions[0]] = block
        else:
            start = 0
            for index in range(1, len(positions)):
                if positions[index] != positions[index - 1] + 1:
                    pending[positions[start]] = block.select(start, index)
                    start = index
            pending[positions[start]] = block.select(start, len(positions))
        ready = []
        while self._next in pending:
            run = pending.pop(self._next)
            ready.append(run)
            self._next += run.size
        return ready


def shard(items: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def _placed_groups(
    sweep: Union[SweepSpec, Iterable[Scenario]],
    skip: Collection[int],
    table: Optional[TechnologyTable],
) -> Iterator[PlacedGroup]:
    """The template groups of ``sweep`` with their input positions, in order.

    A spec's groups come from :meth:`SweepSpec.template_groups`, contiguous
    and in grid order; a scenario list is grouped by
    :func:`repro.fastpath.group_scenarios`.  Rows whose scenario ids are in
    ``skip`` are left out, and positions count the rows that remain.
    ``table`` is the technology table a spec's node values are checked
    against.
    """
    if not isinstance(sweep, SweepSpec):
        # Imported at call time, so layer tracers can patch the package.
        from repro.fastpath import group_scenarios

        yield from group_scenarios([s for s in sweep if s.index not in skip])
        return
    start = 0
    for group in sweep.template_groups(table):
        if skip:
            group = group._replace(rows=[row for row in group.rows if row[0] not in skip])
        if group.rows:
            yield range(start, start + len(group.rows)), group
            start += len(group.rows)


def _load_resume(
    sweep: Union[SweepSpec, Sequence[Scenario]],
    resume: Optional[Union[ResultStore, str, "Path"]],
    include_cost: bool,
    table: Optional[TechnologyTable] = None,
) -> Tuple[Set[int], int, List[Record]]:
    """Read a resume store for :meth:`SweepEngine.run` (nothing without one).

    Repairs a torn store tail left by a crash, loads the records already
    on disk and checks them against the run's columns
    (:func:`check_resume_columns`).  ``table`` is the technology table a
    spec's node values are checked against (``None``: the built-in table).

    Returns:
        ``(done_ids, skipped_count, existing_records)``: the stored
        scenario ids, how many of ``sweep``'s scenarios they cover, and
        the stored records in store order.
    """
    if resume is None:
        return set(), 0, []
    repair_torn_tail(resume)
    path = resume.path if isinstance(resume, ResultStore) else Path(resume)
    existing: List[Record] = []
    if path.is_file() and path.stat().st_size > 0:
        existing = list(_iter_store_records(path))
    check_resume_columns(existing, include_cost, path)
    done_ids = {
        int(record["scenario"])
        for record in existing
        if record.get("scenario") is not None
    }
    if isinstance(sweep, SweepSpec):
        count = sweep.count(table)  # a spec's ids are exactly range(count)
        skipped = sum(1 for index in done_ids if 0 <= index < count)
    else:
        skipped = sum(1 for scenario in sweep if scenario.index in done_ids)
    return done_ids, skipped, existing


def check_resume_columns(
    existing: Iterable[Record], include_cost: bool, store: Union[str, "Path"]
) -> None:
    """Refuse to resume a store whose rows lack the run's metric columns.

    A resumed run appends rows next to the stored ones, so a store written
    without ``cost_usd`` (``--no-cost``) resumed with cost, or the other
    way round, would end up mixing two schemas; so would a stored row that
    lacks any other of the run's :data:`METRIC_COLUMNS`.  Contained-failure
    rows carry no metrics and are not checked.  Sweep and search resume
    run this on the stored records before any scenario is evaluated.

    Raises:
        ValueError: ``cannot resume <store>: …``, naming the first stored
            scenario whose ``cost_usd`` column disagrees or that lacks a
            metric column.
    """
    metrics = _run_columns(METRIC_COLUMNS, include_cost)
    for record in existing:
        scenario_id = record.get("scenario")
        if scenario_id is None or record.get(ERROR_KEY):
            continue
        if ("cost_usd" in record) != include_cost:
            stored, run = ("without", "adds") if include_cost else ("with", "omits")
            raise ValueError(
                f"cannot resume {store}: stored scenario {scenario_id} was written "
                f"{stored} the cost_usd column and this run {run} it; resume with the "
                f"cost setting the store was written with (--no-cost / include_cost)"
            )
        missing = [name for name in metrics if name not in record]
        if missing:
            raise ValueError(
                f"cannot resume {store}: stored scenario {scenario_id} lacks the "
                f"metric columns {missing} this run writes; resume only a store "
                f"written by the same sweep"
            )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepSummary:
    """Outcome of one :meth:`SweepEngine.run`.

    Attributes:
        scenario_count: Number of scenarios evaluated.
        elapsed_s: Wall-clock duration of the run.
        jobs: Parallelism the run used.
        best: Record with the lowest ``total_carbon_g`` (``None`` when the
            spec was empty).
        store_path: Where records were streamed (``None`` without a store).
        skipped_count: Scenarios skipped because a resume store already
            contained their ids.
        error_count: Scenarios contained as structured error records
            (resilience policies with ``on_error="record"`` only).
        retry_count: Total per-scenario retry attempts across the run.
        error_codes: ``(code, count)`` pairs summarising the error
            records, sorted by code.
    """

    scenario_count: int
    elapsed_s: float
    jobs: int
    best: Optional[Record]
    store_path: Optional[str] = None
    skipped_count: int = 0
    error_count: int = 0
    retry_count: int = 0
    error_codes: Tuple[Tuple[str, int], ...] = ()

    @property
    def scenarios_per_second(self) -> float:
        """Evaluation throughput."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.scenario_count / self.elapsed_s


class SweepEngine:
    """Evaluates sweep scenarios, serially or across worker processes.

    Args:
        jobs: Worker processes; ``1`` runs serially in-process.
        config: Estimator configuration shared by all scenarios (scenario
            ``fab_source`` overrides the energy sources per scenario).
        include_cost: Add ``cost_usd`` (the Chiplet-Actuary-style dollar
            cost) to every record.
        mp_context: Multiprocessing start method for worker pools
            (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` uses the
            platform default.  Workers re-import out-of-tree packaging
            plugins in their initializer, so plugin sweeps work under every
            start method.
        table: Technology table override, shipped to worker processes (``None`` uses the built-in table).
        batch_estimator: A pre-built :class:`repro.fastpath.BatchEstimator`
            to evaluate with instead of creating a fresh one per run.  Lets
            a long-lived process (:mod:`repro.serve`) share one compiled-
            template cache across many runs.  Requires ``jobs=1`` (worker
            processes cannot share an in-process cache); it must have been
            built with the
            same ``config``/``table``/``include_cost`` as this engine.
        compile_cache: Persistent on-disk compile cache — a directory
            path or a
            :class:`repro.fastpath.DiskCompileCache`.  ``jobs=1`` mounts it
            on the run's estimator; ``jobs>1`` mounts it in every worker
            process, so templates compile once *across* workers, runs and
            restarts (records stay bit-identical to a cold compile).
            Mutually exclusive with ``batch_estimator`` — mount the cache
            on the shared estimator itself instead.
        resilience: Optional :class:`repro.resilience.ResiliencePolicy`.
            When given, a raising scenario is retried per the policy and
            then (``on_error="record"``) captured as a structured error
            record instead of aborting the sweep, and parallel runs are
            supervised by the one pool driver: hung/dead worker pools
            are detected, their in-flight chunks requeued and the pool
            respawned (bounded by the policy's respawn budget), and rows
            still reach the store as chunks finish.  ``None`` keeps the
            fail-fast behaviour and evaluates whole groups at once.
        chaos: Optional :class:`repro.resilience.ChaosPlan` injecting
            deterministic faults before scenario evaluations (test
            harness).  Parallel runs require the plan to carry a
            ``state_dir`` so fault accounting survives worker death.
    """

    def __init__(
        self,
        jobs: int = 1,
        config: Optional[EstimatorConfig] = None,
        include_cost: bool = True,
        mp_context: Optional[str] = None,
        table: Optional[TechnologyTable] = None,
        batch_estimator: Optional[Any] = None,
        compile_cache: Optional[Any] = None,
        resilience: Optional[ResiliencePolicy] = None,
        chaos: Optional[Any] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if mp_context is not None:
            known = multiprocessing.get_all_start_methods()
            if mp_context not in known:
                raise ValueError(
                    f"unknown multiprocessing start method {mp_context!r}; "
                    f"available on this platform: {known}"
                )
        if batch_estimator is not None and jobs != 1:
            raise ValueError(f"batch_estimator requires jobs=1, got jobs={jobs}")
        if compile_cache is not None:
            if batch_estimator is not None:
                raise ValueError(
                    "compile_cache and batch_estimator are mutually "
                    "exclusive; mount the persistent cache on the shared "
                    "estimator (BatchEstimator(persistent_cache=...)) instead"
                )
            from repro.fastpath import as_disk_cache

            compile_cache = as_disk_cache(compile_cache)
        if chaos is not None and jobs > 1:
            if resilience is None:
                raise ValueError(
                    "chaos injection on parallel sweeps (jobs > 1) requires a "
                    "resilience policy: faults are fired by the supervised "
                    "containment path"
                )
            if getattr(chaos, "state_dir", None) is None:
                raise ValueError(
                    "chaos plans need a state_dir for parallel sweeps "
                    "(jobs > 1): fault accounting must survive worker death"
                )
        self.jobs = jobs
        self.config = config
        self.include_cost = include_cost
        self.mp_context = mp_context
        self.table = table
        self.batch_estimator = batch_estimator
        self.compile_cache = compile_cache
        self.resilience = resilience
        self.chaos = chaos
        #: Per-scenario retry attempts observed by the last iter_records.
        self.last_retry_count: int = 0

    # -- the pool driver ---------------------------------------------------------------
    def _run_chunks(self, chunks: List[List[PlacedGroup]]) -> Iterator[List[PlacedBlock]]:
        """Evaluate chunks in a worker pool; yield their payloads in chunk order.

        Every chunk is submitted as its own future.  A chunk's payload is
        yielded as soon as that chunk and every earlier one are done, and
        its future is dropped then, so a streamed run holds only the chunks
        in flight.  Without a resilience policy that is all: a worker's
        exception, or the :class:`BrokenProcessPool` of a dead pool,
        propagates as ``pool.map`` would raise it.

        With one, this is the watchdog of resilient runs: each chunk is
        awaited under a soft deadline of ``scenario_timeout_s x chunk
        scenarios + grace``.  A deadline miss (hung worker) or a
        :class:`BrokenProcessPool` (dead worker) kills the whole pool, keeps
        the chunks that *did* complete, and respawns a fresh pool for the
        rest — at most ``max_pool_respawns`` times, after which the
        still-unevaluated chunks become ``worker-lost`` error records (or
        the loss is raised, per ``on_error``), so a crash-looping plugin
        degrades the sweep instead of wedging it.
        """
        policy = self.resilience
        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )
        initargs = (
            self.config, self.include_cost, plugin_modules(), self.table,
            policy, self.chaos, self.compile_cache,
        )
        respawns_left = policy.max_pool_respawns if policy is not None else 0
        # Futures of the chunks not yet yielded; after a pool loss, only
        # those that completed are kept.
        futures: Dict[int, Any] = {}
        next_index = 0
        while next_index < len(chunks):
            pending = [i for i in range(next_index, len(chunks)) if i not in futures]
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)),
                mp_context=context,
                initializer=_init_worker,
                initargs=initargs,
            )
            lost = False
            try:
                for index in pending:
                    futures[index] = pool.submit(_evaluate_chunk, chunks[index])
                while next_index < len(chunks):
                    timeout = None
                    if policy is not None and policy.scenario_timeout_s is not None:
                        rows = sum(len(positions) for positions, _ in chunks[next_index])
                        timeout = policy.scenario_timeout_s * max(1, rows) + policy.timeout_grace_s
                    try:
                        payload = futures.pop(next_index).result(timeout=timeout)
                    except (_FuturesTimeout, BrokenProcessPool, EOFError):
                        if policy is None:
                            raise
                        # Hung or dead worker(s): keep every chunk that did
                        # complete, requeue the rest on a fresh pool.
                        lost = True
                        futures = {
                            index: future
                            for index, future in futures.items()
                            if future.done() and future.exception() is None
                        }
                        break
                    next_index += 1
                    yield payload
            finally:
                if lost:
                    # Hung workers never return; terminate them so shutdown
                    # cannot block behind a stuck evaluation.
                    for process in list(getattr(pool, "_processes", {}).values()):
                        try:
                            process.terminate()
                        except Exception:  # noqa: BLE001 - already dead
                            pass
                # A failed or abandoned run (a worker's exception, a
                # closed generator) drops the queued chunks and lets the
                # live workers finish the ones they hold.
                pool.shutdown(wait=not lost, cancel_futures=True)
            if lost:
                if respawns_left > 0:
                    respawns_left -= 1
                    continue
                error = WorkerLostError(
                    "worker pool lost and respawn budget exhausted; "
                    "remaining scenarios were not evaluated"
                )
                if policy.on_error != "record":
                    raise error
                for index in range(next_index, len(chunks)):
                    future = futures.pop(index, None)
                    yield future.result() if future is not None else [
                        _one_row(position, error_record(scenario, error))
                        for positions, group in chunks[index]
                        for position, scenario in zip(positions, group.scenarios())
                    ]
                return

    # -- streaming ------------------------------------------------------------------
    def _containment_policy(self) -> Optional[ResiliencePolicy]:
        """The effective policy when containment/chaos machinery engages.

        A chaos plan without a resilience policy still routes scenarios
        through the containment loop (so delay faults and deterministic
        claims work) but propagates failures — the legacy abort mode.
        """
        if self.resilience is not None:
            return self.resilience
        if self.chaos is not None:
            return ResiliencePolicy(on_error="raise")
        return None

    def iter_records(self, sweep: Union[SweepSpec, Iterable[Scenario]]) -> Iterator[Record]:
        """Yield one flattened record per scenario, in scenario order.

        The records of :meth:`iter_blocks`, row by row.
        """
        for block in self.iter_blocks(sweep):
            yield from block.records()

    def iter_blocks(
        self,
        sweep: Union[SweepSpec, Iterable[Scenario]],
        skip: Collection[int] = (),
    ) -> Iterator[RecordBlock]:
        """Yield the records of every scenario as record blocks, in scenario order.

        Each template group evaluates at once into one
        :class:`~repro.sweep.block.RecordBlock`.  A spec's groups are
        contiguous, so every group leaves as one block and memory stays
        bounded by the largest group; a scenario list's group that is not
        contiguous in the input is buffered while an earlier group is
        outstanding and leaves as one block per run of consecutive
        scenarios.  Scenarios whose ids are in ``skip`` are left out.

        Under a containment policy each scenario evaluates individually
        into a one-row block (:func:`_evaluate_groups`), so one raising
        scenario costs its group nothing.  Records — structured error
        records included — are bit-identical for every ``jobs`` value.
        """
        from repro.fastpath import BatchEstimator

        self.last_retry_count = 0
        groups = _placed_groups(sweep, skip, self.table)
        if self.jobs == 1:
            # A shared estimator (repro.serve) keeps its compiled templates
            # across runs; otherwise each run builds a fresh one.
            estimator = self.batch_estimator
            if estimator is None:
                estimator = BatchEstimator(
                    config=self.config,
                    table=self.table,
                    include_cost=self.include_cost,
                    persistent_cache=self.compile_cache,
                )
            placed = _evaluate_groups(groups, estimator, self._containment_policy(), self.chaos)
        else:
            placed_groups = list(groups)
            # Shard whole groups (not scenarios) so each template compiles
            # in exactly one worker; chunks keep the group order.
            chunks = shard(placed_groups, max(1, -(-len(placed_groups) // (self.jobs * 4))))
            placed = chain.from_iterable(self._run_chunks(chunks))
        in_order = _InOrder()
        for positions, block, retries in placed:
            self.last_retry_count += retries
            yield from in_order.add(positions, block)

    # -- one-shot -------------------------------------------------------------------
    def run(
        self,
        sweep: Union[SweepSpec, Iterable[Scenario]],
        store: Optional[ResultStore] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        resume: Optional[Union[ResultStore, str, "Path"]] = None,
        on_block: Optional[Callable[[RecordBlock], None]] = None,
        annotate: Optional[Mapping[str, Any]] = None,
    ) -> SweepSummary:
        """Evaluate every scenario, streaming records into ``store``.

        Args:
            sweep: A spec (its template groups are evaluated without
                expanding it) or an explicit scenario list.
            store: Streaming result store; the records of each template
                group are appended (one write) as soon as the group is
                computed and every earlier scenario has been written.
            progress: Optional ``(done, total)`` callback per new record,
                called once its record is in ``store``.
            resume: A store (or store path) from a previous run of the same
                spec, read once: a torn final line from a crash is
                repaired, scenarios whose ids appear in it are skipped, and
                the stored records compete for :attr:`SweepSummary.best`
                so the summary covers the whole sweep.  Usually the same
                file as ``store``, opened with ``append=True`` so old and
                new records accumulate together.  Stored rows written with
                the other ``include_cost`` setting raise
                :class:`ValueError` (``cannot resume <store>: …``) before
                any scenario is evaluated (:func:`check_resume_columns`).
            on_block: Optional callback invoked with every
                :class:`~repro.sweep.block.RecordBlock` as soon as it is
                computed (after the ``annotate`` columns and the ``store``
                append), in scenario order.  With ``resume``, every stored
                record comes first, as a one-row block, in store order;
                stored records are not counted, re-appended or annotated.
                Used by :class:`repro.api.Session` to collect records
                without building a dict per row.
            annotate: Constant extra columns merged into every record of
                this run before it reaches the store and callbacks (e.g.
                the ``search_round`` column :mod:`repro.search` stamps on
                each evaluation batch).  A key that collides with a record
                column raises :class:`ValueError` — annotations may never
                silently overwrite evaluation output.

        Returns:
            A :class:`SweepSummary` with counts, timing and the best record.
        """
        if not isinstance(sweep, SweepSpec):
            sweep = list(sweep)
        annotations = dict(annotate) if annotate else None
        skip, skipped, existing = _load_resume(sweep, resume, self.include_cost, self.table)
        best: Optional[Record] = min(
            (record for record in existing if record.get("total_carbon_g") is not None),
            key=itemgetter("total_carbon_g"),
            default=None,
        )
        if on_block is not None:
            for record in existing:
                on_block(RecordBlock(record, (), [()]))
        # The best row so far: its total and, for a new row, its block and
        # index (the dict is built once, at the end).
        best_total = best["total_carbon_g"] if best is not None else None
        best_row: Optional[Tuple[RecordBlock, int]] = None
        total = (
            sweep.count(self.table) if isinstance(sweep, SweepSpec) else len(sweep)
        ) - skipped
        done = 0
        error_count = 0
        error_codes: Dict[str, int] = {}
        start = time.perf_counter()
        for block in self.iter_blocks(sweep, skip):
            if annotations is not None:
                collisions = [key for key in annotations if key in block.shared]
                if collisions:
                    raise ValueError(
                        f"annotate keys {sorted(collisions)} collide with "
                        f"record columns"
                    )
                block = block.with_constants(annotations)
            if store is not None:
                store.append_block(block)
            if on_block is not None:
                on_block(block)
            errors = block.column(ERROR_KEY) if ERROR_KEY in block.shared else None
            totals = (
                block.column("total_carbon_g")
                if "total_carbon_g" in block.shared
                else None
            )
            for index in range(len(block.rows)):
                if errors is not None and errors[index]:
                    error_count += 1
                    code = (error_info(block.record(index)) or {}).get(
                        "code", "evaluation-error"
                    )
                    error_codes[code] = error_codes.get(code, 0) + 1
                else:
                    total_g = totals[index]
                    if best_total is None or total_g < best_total:
                        best_total = total_g
                        best_row = (block, index)
                done += 1
                if progress is not None:
                    progress(done, total)
        if best_row is not None:
            best = best_row[0].record(best_row[1])
        elapsed = time.perf_counter() - start
        return SweepSummary(
            scenario_count=done,
            elapsed_s=elapsed,
            jobs=self.jobs,
            best=best,
            store_path=str(store.path) if store is not None else None,
            skipped_count=skipped,
            error_count=error_count,
            retry_count=self.last_retry_count,
            error_codes=tuple(sorted(error_codes.items())),
        )
