"""Unit tests for repro.serve: shared estimator, quotas, metrics, errors, job manager."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.serve.errors import (
    EXIT_RUNTIME_ERROR,
    EXIT_SPEC_ERROR,
    JobStateError,
    NotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    SpecError,
    format_error_text,
)
from repro.serve.jobs import JobManager
from repro.serve.metrics import Metrics
from repro.serve.quota import QuotaTracker

SPEC = {"testcases": ["ga102-3chiplet"], "nodes": [7, 14], "packaging": ["rdl"]}


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------
class TestErrors:
    def test_text_keeps_error_prefix_and_code(self):
        text = SpecError("bad spec").text()
        assert text.startswith("error:")
        assert "[invalid-spec]" in text
        assert "bad spec" in text
        assert format_error_text("runtime", "boom") == "error: [runtime] boom"

    def test_payload_shape(self):
        payload = QuotaExceededError("over budget").payload()
        assert payload == {
            "error": {
                "code": "quota-exceeded",
                "message": "over budget",
                "retry_after_s": 5.0,
            }
        }

    def test_payload_without_retry_hint(self):
        payload = SpecError("bad").payload()
        assert payload == {"error": {"code": "invalid-spec", "message": "bad"}}

    def test_retry_after_override(self):
        assert QueueFullError("full").retry_after == 1.0
        assert QueueFullError("full", retry_after=7.5).retry_after == 7.5

    def test_exit_code_split(self):
        assert SpecError("x").exit_code == EXIT_SPEC_ERROR == 2
        assert ServeError("x").exit_code == EXIT_RUNTIME_ERROR == 3

    def test_http_statuses(self):
        assert SpecError("x").http_status == 400
        assert NotFoundError("x").http_status == 404
        assert JobStateError("x").http_status == 409
        assert QuotaExceededError("x").http_status == 429
        assert QueueFullError("x").http_status == 503


# ---------------------------------------------------------------------------
# Quota
# ---------------------------------------------------------------------------
class TestQuotaTracker:
    def test_reserve_release_cycle(self):
        quota = QuotaTracker(10)
        quota.reserve("a", 6)
        with pytest.raises(QuotaExceededError) as excinfo:
            quota.reserve("a", 5)
        assert excinfo.value.http_status == 429
        quota.reserve("b", 10)  # budgets are per client
        quota.release("a", 6)
        quota.reserve("a", 10)
        snap = quota.snapshot()
        assert snap["in_flight"] == {"a": 10, "b": 10}
        assert snap["rejections"] == 1

    def test_force_reserve_skips_check(self):
        quota = QuotaTracker(5)
        quota.reserve("a", 50, force=True)  # restart adoption path
        assert quota.snapshot()["in_flight"] == {"a": 50}

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            QuotaTracker(0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counters_and_latency(self):
        metrics = Metrics()
        metrics.increment("jobs_submitted")
        metrics.increment("jobs_submitted", 2)
        metrics.observe("run", 1.0)
        metrics.observe("run", 3.0)
        snap = metrics.snapshot()
        assert snap["counters"]["jobs_submitted"] == 3
        assert snap["latency"]["run"]["count"] == 2
        assert snap["latency"]["run"]["mean_s"] == pytest.approx(2.0)
        assert snap["latency"]["run"]["max_s"] == pytest.approx(3.0)

    def test_thread_safety_of_increments(self):
        metrics = Metrics()

        def spin():
            for _ in range(1000):
                metrics.increment("n")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.snapshot()["counters"]["n"] == 4000


# ---------------------------------------------------------------------------
# Shared estimator
# ---------------------------------------------------------------------------
class TestSharedEstimator:
    def test_stats_track_hits_across_runs(self):
        from repro.api import Session
        from repro.fastpath import BatchEstimator

        estimator = BatchEstimator()
        session = Session(batch_estimator=estimator)
        session.sweep(SPEC)
        first = estimator.cache_stats()
        assert first["template_misses"] > 0
        session.sweep(SPEC)
        second = estimator.cache_stats()
        assert second["template_misses"] == first["template_misses"]
        assert second["template_hits"] > first["template_hits"]


# ---------------------------------------------------------------------------
# Job manager (no HTTP)
# ---------------------------------------------------------------------------
def wait_for(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestJobManager:
    def test_submit_runs_to_done(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        try:
            job = manager.submit(SPEC)
            assert job.scenario_count == 8
            assert wait_for(lambda: job.state == "done")
            assert job.done == 8
            assert job.error is None
            records = [
                json.loads(line)
                for line in job.store_path.read_text().splitlines()
                if line
            ]
            assert len(records) == 8
            # metadata persisted atomically alongside the store
            meta = json.loads((tmp_path / f"{job.id}.json").read_text())
            assert meta["state"] == "done"
        finally:
            manager.shutdown()

    def test_identical_resubmission_reuses_warm_templates(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        try:
            first = manager.submit(SPEC)
            assert wait_for(lambda: first.state == "done")
            warm = manager.metrics_snapshot()["template_cache"]
            assert warm["compiles"] > 0
            second = manager.submit(dict(SPEC))
            assert wait_for(lambda: second.state == "done")
            snap = manager.metrics_snapshot()
            # Re-evaluated, not replayed, and on templates compiled once.
            assert snap["template_cache"]["compiles"] == warm["compiles"]
            assert snap["template_cache"]["template_hits"] > warm["template_hits"]
            assert snap["counters"]["scenarios_evaluated"] == 2 * first.scenario_count
            assert second.store_path.read_bytes() == first.store_path.read_bytes()
            assert "cached" not in second.to_dict()
        finally:
            manager.shutdown()

    def test_compile_cache_dir_keeps_templates_across_restarts(self, tmp_path):
        first = JobManager(tmp_path / "a", workers=1, compile_cache_dir=tmp_path / "cc")
        first.start()
        try:
            cold = first.submit(SPEC)
            assert wait_for(lambda: cold.state == "done")
            assert first.metrics_snapshot()["template_cache"]["compiles"] > 0
        finally:
            first.shutdown()
        second = JobManager(tmp_path / "b", workers=1, compile_cache_dir=tmp_path / "cc")
        second.start()
        try:
            warm = second.submit(SPEC)
            assert wait_for(lambda: warm.state == "done")
            templates = second.metrics_snapshot()["template_cache"]
            assert templates["compiles"] == 0
            assert templates["disk_hits"] > 0
            assert warm.store_path.read_bytes() == cold.store_path.read_bytes()
        finally:
            second.shutdown()

    def test_worker_processes_share_no_estimator(self, tmp_path):
        from repro.api import Session

        manager = JobManager(tmp_path / "jobs", workers=1, jobs=2)
        assert manager.estimator is None
        manager.start()
        try:
            job = manager.submit(SPEC)
            assert wait_for(lambda: job.state == "done", timeout=60.0)
            snap = manager.metrics_snapshot()
            assert "template_cache" not in snap
            assert snap["counters"]["scenarios_evaluated"] == job.scenario_count
        finally:
            manager.shutdown()
        direct = tmp_path / "direct.jsonl"
        Session().sweep(SPEC, out=direct, collect_records=False)
        assert job.store_path.read_bytes() == direct.read_bytes()

    def test_worker_processes_mount_the_compile_cache(self, tmp_path):
        cache_dir = tmp_path / "cc"
        stores = []
        for jobs in (1, 2):
            manager = JobManager(
                tmp_path / f"jobs-{jobs}",
                workers=1,
                jobs=jobs,
                compile_cache_dir=cache_dir if jobs == 2 else None,
            )
            manager.start()
            try:
                job = manager.submit(SPEC)
                assert wait_for(lambda: job.state == "done", timeout=60.0)
            finally:
                manager.shutdown()
            stores.append(job.store_path.read_bytes())
        assert any(path.is_file() for path in cache_dir.rglob("*"))
        assert stores[1] == stores[0]

    def test_concurrent_jobs_share_the_estimator_safely(self, tmp_path):
        import sys

        from repro.api import Session

        # Overlapping specs: every job reads and fills the same templates.
        specs = [
            {**SPEC, "name": f"overlap-{i}", "lifetimes": [float(i + 1), 10.0]}
            for i in range(6)
        ]
        manager = JobManager(tmp_path / "jobs", workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manager.start()
            jobs = [manager.submit(spec) for spec in specs]
            assert wait_for(
                lambda: all(job.state == "done" for job in jobs), timeout=60.0
            )
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown()
        assert all(not thread.is_alive() for thread in manager._threads)
        for job, spec in zip(jobs, specs):
            direct = tmp_path / f"{job.id}.direct.jsonl"
            Session().sweep(spec, out=direct, collect_records=False)
            assert job.store_path.read_bytes() == direct.read_bytes()

    def test_invalid_spec_rejected(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        try:
            with pytest.raises(SpecError):
                manager.submit({"testcases": ["ga102-3chiplet"], "bogus": True})
            with pytest.raises(SpecError):
                manager.submit(["not", "a", "mapping"])
            with pytest.raises(SpecError, match="has 2 entries"):
                manager.submit({"testcases": ["ga102-3chiplet"], "node_configs": [[7, 7]]})
        finally:
            manager.shutdown()

    def test_quota_rejection_and_release(self, tmp_path):
        manager = JobManager(tmp_path, workers=1, quota=QuotaTracker(10))
        manager.start()
        try:
            with pytest.raises(QuotaExceededError):
                manager.submit({"testcases": ["ga102-3chiplet"], "nodes": [7, 14, 10, 12]})  # 64 > 10
            job = manager.submit(SPEC)  # 8 fits
            assert wait_for(lambda: job.state == "done")
            # terminal job released its budget: 8 fits again
            job2 = manager.submit(dict(SPEC))
            assert wait_for(lambda: job2.state == "done")
        finally:
            manager.shutdown()

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=1, queue_size=8)
        # Workers not started: submissions stay queued.
        job = manager.submit(SPEC)
        cancelled = manager.cancel(job.id)
        assert cancelled.state == "cancelled"
        with pytest.raises(JobStateError):
            manager.cancel(job.id)
        meta = json.loads((tmp_path / f"{job.id}.json").read_text())
        assert meta["state"] == "cancelled"

    def test_queue_full_rejects_with_503(self, tmp_path):
        manager = JobManager(tmp_path, workers=1, queue_size=1)
        # Workers not started: the queue holds the single slot.
        manager.submit(SPEC)
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit(dict(SPEC))
        assert excinfo.value.http_status == 503
        # the rejected job left no orphaned files behind
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_unknown_job_raises_not_found(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        with pytest.raises(NotFoundError):
            manager.get("feedfacecafe")

    def test_recover_adopts_persisted_jobs(self, tmp_path):
        manager = JobManager(tmp_path, workers=1, queue_size=8)
        queued = manager.submit(SPEC)  # never run: no workers started
        # Simulate a crashed process: a fresh manager over the same dir.
        adopted = JobManager(tmp_path, workers=1, queue_size=8)
        adopted.start()
        try:
            job = adopted.get(queued.id)
            assert wait_for(lambda: job.state == "done")
            records = [
                json.loads(line)
                for line in job.store_path.read_text().splitlines()
                if line
            ]
            assert sorted(r["scenario"] for r in records) == list(range(8))
        finally:
            adopted.shutdown()

    @pytest.mark.parametrize(
        "field",
        [{"done": "abc"}, {"done": [1]}, {"submitted_at": "yesterday"}],
        ids=["done-str", "done-list", "submitted_at-str"],
    )
    def test_recover_quarantines_mistyped_metadata(self, tmp_path, field):
        # Valid JSON with a mistyped field must not raise out of recover():
        # start() would fail and the server could not boot.
        meta = {"id": "deadbeef0002", "state": "done", "spec": SPEC, **field}
        (tmp_path / "deadbeef0002.json").write_text(json.dumps(meta))
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        try:
            assert manager.list_jobs() == []
            assert not (tmp_path / "deadbeef0002.json").exists()
            assert (tmp_path / "deadbeef0002.json.corrupt").is_file()
            counters = manager.metrics_snapshot()["counters"]
            assert counters["jobs_quarantined"] == 1
            job = manager.submit(SPEC)  # the booted server still works
            assert wait_for(lambda: job.state == "done")
        finally:
            manager.shutdown()

    @pytest.mark.parametrize(
        "spec",
        [
            {"testcases": ["ga102-3chiplet"], "bogus": True},
            {"testcases": ["ga102-3chiplet"], "node_configs": [[7, 7]]},
        ],
        ids=["unknown-axis", "node-config-arity"],
    )
    def test_recover_leaves_incompatible_specs_alone(self, tmp_path, spec):
        # A spec this process cannot run (e.g. an axis from a plugin not
        # loaded here) stays on disk untouched, and the server still boots.
        path = tmp_path / "deadbeef0004.json"
        path.write_text(json.dumps({"id": "deadbeef0004", "state": "failed", "spec": spec}))
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        try:
            assert manager.list_jobs() == []
            assert path.is_file()
            assert "jobs_quarantined" not in manager.metrics_snapshot()["counters"]
        finally:
            manager.shutdown()

    def test_recover_adopts_metadata_carrying_a_cached_flag(self, tmp_path):
        # Metadata from older servers may carry a "cached" key; it is
        # ignored, not treated as corrupt.
        meta = {
            "id": "deadbeef0003",
            "client": "alice",
            "state": "done",
            "scenarios": 8,
            "done": 8,
            "cached": True,
            "elapsed_s": 0.01,
            "submitted_at": 1.0,
            "spec": SPEC,
        }
        (tmp_path / "deadbeef0003.json").write_text(json.dumps(meta))
        manager = JobManager(tmp_path, workers=1)
        adopted = manager.recover()
        assert [(job.id, job.state, job.done) for job in adopted] == [
            ("deadbeef0003", "done", 8)
        ]
        assert "cached" not in adopted[0].to_dict()
        assert "jobs_quarantined" not in manager.metrics_snapshot()["counters"]
