"""Job queue, worker pool and crash-safe job persistence.

A :class:`JobManager` owns a bounded queue of sweep jobs, a pool of
worker threads evaluating them through :class:`repro.api.Session`, and a
store directory holding one metadata file (``<id>.json``) plus one
streaming record store (``<id>.jsonl``) per job.

Lifecycle: ``queued -> running -> done | partial | failed | cancelled``
(``partial``: the sweep completed but contained per-scenario error
records — see :mod:`repro.resilience`).  Every
transition is persisted atomically, and record stores are only ever
appended whole lines (``repro.sweep.store``), so killing the server at
any instant leaves a state a restarted manager can adopt: ``recover()``
re-enqueues unfinished jobs with ``resume=True`` and they complete from
their store with no duplicate or torn rows.

Cancellation and shutdown interrupt *between* records: every row is on
disk before its progress callback runs (the engine appends a whole
template group in one write, then reports its rows one by one), so when a
callback raises, the store holds complete lines only — a valid prefix of
the full sweep, possibly up to one template group ahead of ``job.done``,
which resume reads from the store anyway.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.api import Session
from repro.core.estimator import EstimatorConfig
from repro.resilience import ChaosPlan, ResiliencePolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.errors import (
    JobStateError,
    NotFoundError,
    QueueFullError,
    SpecError,
    error_message,
)
from repro.serve.metrics import Metrics
from repro.serve.quota import QuotaTracker
from repro.sweep.spec import SweepSpec
from repro.technology.nodes import TechnologyTable

__all__ = ["Job", "JobManager", "JOB_STATES", "TERMINAL_STATES"]

logger = logging.getLogger(__name__)

#: Job lifecycle states (``partial``: completed with error records).
JOB_STATES = ("queued", "running", "done", "partial", "failed", "cancelled")
#: States a job never leaves.
TERMINAL_STATES = ("done", "partial", "failed", "cancelled")

_STOP = object()  # worker shutdown sentinel


class _JobCancelled(Exception):
    """Raised inside the progress callback when the job's cancel flag is set."""


class _JobInterrupted(Exception):
    """Raised inside the progress callback on manager shutdown (drain=False)."""


class Job:
    """One submitted sweep: spec, lifecycle state and store paths."""

    def __init__(
        self,
        job_id: str,
        client: str,
        payload: Mapping[str, Any],
        spec: SweepSpec,
        scenario_count: int,
        store_path: Path,
        submitted_at: float,
    ):
        self.id = job_id
        self.client = client
        self.payload = dict(payload)
        self.spec = spec
        self.store_path = store_path
        self.scenario_count = scenario_count
        self.state = "queued"
        self.done = 0
        self.error: Optional[Dict[str, str]] = None
        #: Per-scenario error summary of a ``partial`` job
        #: (``{"count": ..., "retried": ..., "codes": {code: n}}``).
        self.errors: Optional[Dict[str, Any]] = None
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.elapsed_s: Optional[float] = None
        self.cancel_event = threading.Event()
        self._quota_released = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON form used both for persistence and API responses."""
        return {
            "id": self.id,
            "client": self.client,
            "state": self.state,
            "scenarios": self.scenario_count,
            "done": self.done,
            "error": self.error,
            "errors": self.errors,
            "elapsed_s": self.elapsed_s,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "spec": self.payload,
        }


class JobManager:
    """Bounded job queue + worker pool + persistence, behind the HTTP API.

    Args:
        store_dir: Directory for per-job metadata and record stores.
        workers: Worker threads evaluating jobs concurrently.
        queue_size: Bound of the pending-job queue; a full queue rejects
            submissions with 503 (:class:`QueueFullError`).
        jobs: Worker *processes* per sweep (``1`` keeps evaluation
            in-process, which is what lets every job share one
            :class:`repro.fastpath.BatchEstimator` and its compiled
            templates).
        config: Estimator configuration all jobs evaluate under.
        table: Technology table override.
        include_cost: Add ``cost_usd`` to records.
        quota: Optional per-client scenario budget.
        metrics: Metrics sink (created when omitted).
        compile_cache_dir: Directory for the persistent on-disk compile
            cache (``--compile-cache`` /``ECO_CHIP_COMPILE_CACHE``).
            Mounted under the shared estimator so warm templates survive
            server restarts; ignored when ``jobs > 1`` (worker processes
            share no in-process templates).
        resilience: :class:`~repro.resilience.ResiliencePolicy` jobs run
            under.  Defaults to containment (``on_error="record"``, no
            retries): a scenario that raises becomes one error record and
            the job finishes ``partial`` instead of ``failed``.  Pass
            ``False`` for the historical fail-fast behaviour.
        chaos: Optional :class:`~repro.resilience.ChaosPlan` injected into
            every job's sweep (chaos tests only).
        breaker: Per-packaging-type :class:`CircuitBreaker`.  ``None``
            creates one with default thresholds; pass ``False`` to
            disable, or a configured instance.
    """

    def __init__(
        self,
        store_dir: Union[str, Path],
        *,
        workers: int = 2,
        queue_size: int = 32,
        jobs: int = 1,
        config: Optional[EstimatorConfig] = None,
        table: Optional[TechnologyTable] = None,
        include_cost: bool = True,
        quota: Optional[QuotaTracker] = None,
        metrics: Optional[Metrics] = None,
        compile_cache_dir: Optional[Union[str, Path]] = None,
        resilience: Union[ResiliencePolicy, None, bool] = None,
        chaos: Optional[ChaosPlan] = None,
        breaker: Union[CircuitBreaker, None, bool] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.jobs = jobs
        self.config = config
        self.table = table
        self.include_cost = include_cost
        self.quota = quota
        self.metrics = metrics if metrics is not None else Metrics()
        if resilience is False:
            self.resilience: Optional[ResiliencePolicy] = None
        elif resilience is None or resilience is True:
            self.resilience = ResiliencePolicy()
        else:
            self.resilience = resilience
        self.chaos = chaos
        if breaker is False:
            self.breaker: Optional[CircuitBreaker] = None
        elif breaker is None or breaker is True:
            self.breaker = CircuitBreaker(metrics=self.metrics)
        else:
            self.breaker = breaker
        self.estimator: Optional[Any] = None
        if jobs == 1:
            from repro.fastpath import BatchEstimator

            # One estimator, and so one set of compiled templates, for
            # every job.  Sharing it across worker threads is safe: its
            # caches are plain dicts whose individual operations are
            # GIL-atomic and whose values are deterministic, so the worst
            # concurrent-miss outcome is computing the same immutable
            # template twice.
            self.estimator = BatchEstimator(
                config=config,
                table=table,
                include_cost=include_cost,
                persistent_cache=compile_cache_dir,
            )
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._abort = threading.Event()
        self._closed = False
        self._threads: List[threading.Thread] = []

    # -- lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool, then adopt persisted jobs (resumable)."""
        if self._threads:
            raise RuntimeError("manager already started")
        self._threads = [
            threading.Thread(target=self._worker, name=f"sweep-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self.recover()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool.

        ``drain=True`` finishes every queued and running job first; with a
        ``timeout`` that is a bounded *grace period* — jobs still running
        when it expires are interrupted at their next record boundary and
        persisted as ``queued`` (exactly the ``drain=False`` outcome), so
        shutdown always terminates and never loses work.
        ``drain=False`` interrupts running jobs at their next record
        boundary and leaves them — and everything still queued — persisted
        as ``queued``, so a restarted manager resumes them from their
        stores.
        """
        self._closed = True
        if not drain:
            self._abort.set()
        for _ in self._threads:
            self._queue.put(_STOP)
        if drain and timeout is not None:
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                thread.join(max(0.0, deadline - time.monotonic()))
            if any(thread.is_alive() for thread in self._threads):
                # Grace expired: escalate to interrupt-and-persist.
                logger.warning(
                    "shutdown grace period (%.1fs) expired; interrupting "
                    "running jobs at their next record boundary",
                    timeout,
                )
                self._abort.set()
        for thread in self._threads:
            thread.join(timeout)

    # -- submission / queries ---------------------------------------------------------
    def submit(self, payload: Any, client: str = "anonymous") -> Job:
        """Validate, persist and enqueue one sweep job.

        Raises:
            SpecError: the payload is not a valid sweep spec.
            CircuitOpenError: a packaging type in the spec has a tripped
                circuit breaker (recent repeated failures).
            QuotaExceededError: the client's scenario budget is exhausted.
            QueueFullError: the bounded queue has no room.
            JobStateError: the manager is shutting down.
        """
        if self._closed:
            raise JobStateError("server is shutting down; not accepting jobs")
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"sweep payload must be a JSON object (a sweep spec, or "
                f"{{'spec': ...}}), got {type(payload).__name__}"
            )
        body = dict(payload)
        spec_dict = body.get("spec", body)
        if not isinstance(spec_dict, Mapping):
            raise SpecError("'spec' must be a JSON object")
        spec_dict = dict(spec_dict)
        try:
            spec = SweepSpec.from_dict(spec_dict)
            # Also checks testcases, nodes and node configs against the
            # registry, the table and the bases.
            count = spec.count(self.table)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(error_message(exc)) from exc
        if count == 0:
            raise SpecError("the spec expands into zero scenarios")
        if self.breaker is not None:
            for key in self._breaker_keys(spec):
                self.breaker.check(key)
        if self.quota is not None:
            self.quota.reserve(client, count)
        job_id = uuid.uuid4().hex[:12]
        job = Job(
            job_id,
            client,
            spec_dict,
            spec,
            count,
            self.store_dir / f"{job_id}.jsonl",
            time.time(),
        )
        with self._lock:
            self._jobs[job.id] = job
        self._persist(job)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                self._release_quota(job)
                self._jobs.pop(job.id, None)
            self._meta_path(job).unlink(missing_ok=True)
            raise QueueFullError(
                f"job queue is full ({self._queue.maxsize} pending); retry "
                f"after jobs drain"
            ) from None
        self.metrics.increment("jobs_submitted")
        return job

    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` (raises :class:`NotFoundError`)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise NotFoundError(f"no sweep job with id {job_id!r}")
        return job

    def list_jobs(self) -> List[Job]:
        """All known jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job.

        A queued job is finalised immediately; a running one stops at its
        next record boundary (its store stays a valid prefix).
        """
        job = self.get(job_id)
        finalize = False
        with self._lock:
            if job.state in TERMINAL_STATES:
                raise JobStateError(f"job {job_id} is already {job.state}")
            job.cancel_event.set()
            if job.state == "queued":
                finalize = True
        if finalize:
            self._finish(job, "cancelled")
        return job

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/v1/metrics`` payload."""
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        base = self.metrics.snapshot()
        payload: Dict[str, Any] = {
            "jobs": {
                **{state: states.count(state) for state in JOB_STATES},
                "submitted_total": base["counters"].get("jobs_submitted", 0),
            },
            "queue_depth": self._queue.qsize(),
            "workers": self.workers,
            "counters": base["counters"],
            "latency": base["latency"],
        }
        if self.estimator is not None:
            payload["template_cache"] = self.estimator.cache_stats()
        if self.quota is not None:
            payload["quota"] = self.quota.snapshot()
        if self.breaker is not None:
            payload["breaker"] = self.breaker.snapshot()
        return payload

    # -- recovery ---------------------------------------------------------------------
    def recover(self) -> List[Job]:
        """Adopt jobs persisted by a previous process.

        Terminal jobs are loaded for status/result queries; unfinished
        ones (``queued``/``running`` at crash time) are re-enqueued with
        ``resume=True`` so evaluation continues from their record store.
        """
        adopted: List[Job] = []
        for meta_path in sorted(self.store_dir.glob("*.json")):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except OSError:
                continue
            except json.JSONDecodeError as exc:
                # Corrupt / torn metadata (e.g. a crash mid-write outside
                # the atomic-rename path).
                self._quarantine(meta_path, exc)
                continue
            if not isinstance(meta, dict) or "id" not in meta:
                continue
            job_id = str(meta["id"])
            with self._lock:
                if job_id in self._jobs:
                    continue
            try:
                submitted_at = float(meta.get("submitted_at") or time.time())
                done = int(meta.get("done") or 0)
            except (TypeError, ValueError) as exc:
                # Valid JSON with a mistyped field: as unusable as a torn
                # file, and must not stop the server from booting.
                self._quarantine(meta_path, exc)
                continue
            spec_dict = meta.get("spec") or {}
            try:
                spec = SweepSpec.from_dict(dict(spec_dict))
                job = Job(
                    job_id,
                    str(meta.get("client", "anonymous")),
                    spec_dict,
                    spec,
                    spec.count(self.table),
                    self.store_dir / f"{job_id}.jsonl",
                    submitted_at,
                )
            except (KeyError, TypeError, ValueError):
                continue  # foreign or incompatible metadata: leave it alone
            job.state = str(meta.get("state", "queued"))
            job.done = done
            job.error = meta.get("error")
            job.errors = meta.get("errors")
            job.elapsed_s = meta.get("elapsed_s")
            job.started_at = meta.get("started_at")
            job.finished_at = meta.get("finished_at")
            with self._lock:
                self._jobs[job.id] = job
            if job.state not in TERMINAL_STATES:
                job.state = "queued"
                job._quota_released = False
                if self.quota is not None:
                    # The budget was granted before the crash; re-charge
                    # without re-checking so recovery can never be rejected.
                    self.quota.reserve(job.client, job.scenario_count, force=True)
                self._persist(job)
                self._queue.put(job)  # workers are already draining
                self.metrics.increment("jobs_recovered")
            adopted.append(job)
        return adopted

    # -- internals --------------------------------------------------------------------
    def _quarantine(self, meta_path: Path, reason: Exception) -> None:
        """Move unusable job metadata aside to ``<name>.corrupt``, so it is
        neither re-parsed on every restart nor silently deleted."""
        quarantine = meta_path.with_name(meta_path.name + ".corrupt")
        try:
            os.replace(meta_path, quarantine)
        except OSError:
            return
        logger.warning(
            "quarantined corrupt job metadata %s -> %s (%s)",
            meta_path.name,
            quarantine.name,
            reason,
        )
        self.metrics.increment("jobs_quarantined")

    @staticmethod
    def _breaker_keys(spec: SweepSpec) -> List[str]:
        """Circuit-breaker keys of a spec: its packaging types.

        A spec sweeping no packaging axis runs each testcase's baseline
        packaging; those jobs share the ``"(base)"`` key.
        """
        keys = sorted(
            {str(entry.get("type", "?")) for entry in spec.packaging}
        )
        return keys or ["(base)"]

    def _meta_path(self, job: Job) -> Path:
        return self.store_dir / f"{job.id}.json"

    def _persist(self, job: Job, state: Optional[str] = None) -> None:
        """Atomically write the job's metadata (tmp + rename), optionally
        with the ``state`` the job is about to enter."""
        meta = job.to_dict()
        if state is not None:
            meta["state"] = state
        meta_path = self._meta_path(job)
        tmp_path = meta_path.with_name(meta_path.name + ".tmp")
        tmp_path.write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp_path, meta_path)

    def _release_quota(self, job: Job) -> None:
        if self.quota is not None and not job._quota_released:
            self.quota.release(job.client, job.scenario_count)
            job._quota_released = True

    def _finish(self, job: Job, state: str) -> None:
        # The metadata on disk turns terminal before the in-memory state
        # does, so whoever observes the outcome can also read it back.
        job.finished_at = time.time()
        self._persist(job, state)
        with self._lock:
            job.state = state
            self._release_quota(job)
        self.metrics.increment(f"jobs_{state}")

    def _session(self) -> Session:
        return Session(
            self.config,
            table=self.table,
            jobs=self.jobs,
            include_cost=self.include_cost,
            batch_estimator=self.estimator,
            resilience=self.resilience,
            chaos=self.chaos,
        )

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            job: Job = item
            if job.state != "queued":
                continue  # cancelled while queued
            if self._abort.is_set():
                # Shutdown without drain: leave it persisted as queued so a
                # restarted manager re-enqueues it.
                self._persist(job)
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state != "queued":
                return
            job.state = "running"
            job.started_at = time.time()
        self.metrics.observe("queue_wait", job.started_at - job.submitted_at)
        self._persist(job)

        total_count = job.scenario_count
        cancel_event = job.cancel_event
        abort = self._abort

        def progress(done: int, total: int) -> None:
            # Every row is in the store *before* this callback, so raising
            # here interrupts cleanly between records.
            job.done = total_count - total + done
            if cancel_event.is_set():
                raise _JobCancelled()
            if abort.is_set():
                raise _JobInterrupted()

        start = time.perf_counter()
        try:
            result = self._session().sweep(
                job.spec,
                out=job.store_path,
                resume=job.store_path.exists(),
                progress=progress,
                collect_records=False,
            )
        except _JobCancelled:
            self._finish(job, "cancelled")
        except _JobInterrupted:
            with self._lock:
                job.state = "queued"
            self._persist(job)
        except Exception as exc:  # noqa: BLE001 - captured into the job record
            job.error = {
                "code": "runtime",
                "message": f"{type(exc).__name__}: {exc}",
            }
            self._charge_breaker(job, success=False)
            self._finish(job, "failed")
        else:
            summary = result.summary
            job.done = total_count
            job.elapsed_s = summary.elapsed_s
            self.metrics.observe("run", time.perf_counter() - start)
            self.metrics.increment("scenarios_evaluated", summary.scenario_count)
            retried = summary.retry_count
            if retried:
                self.metrics.increment("scenarios_retried", retried)
            if summary.error_count:
                # Completed, but some scenarios yielded error records:
                # terminal ``partial`` with a per-code error summary.
                job.errors = {
                    "count": summary.error_count,
                    "retried": retried,
                    "codes": dict(summary.error_codes),
                }
                self.metrics.increment("scenarios_failed", summary.error_count)
                # Charge the breaker before the state turns terminal, so a
                # client that sees the outcome also sees its breaker effect.
                self._charge_breaker(job, success=False)
                self._finish(job, "partial")
            else:
                self._charge_breaker(job, success=True)
                self._finish(job, "done")

    def _charge_breaker(self, job: Job, success: bool) -> None:
        if self.breaker is None:
            return
        for key in self._breaker_keys(job.spec):
            if success:
                self.breaker.record_success(key)
            else:
                self.breaker.record_failure(key)
