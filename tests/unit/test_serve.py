"""Unit tests for repro.serve: caches, quotas, metrics, errors, job manager."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.serve.cache import ResultCache, SharedCompileCache
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
# Result cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", [{"scenario": 0}])
        assert cache.get("k") == ({"scenario": 0},)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_records_are_copied(self):
        cache = ResultCache()
        record = {"scenario": 0, "total_carbon_g": 1.0}
        cache.put("k", [record])
        record["total_carbon_g"] = 999.0
        assert cache.get("k")[0]["total_carbon_g"] == 1.0

    def test_replayed_records_are_mutation_safe(self):
        # Regression: get() used to return the cached tuple's own dicts, so
        # a caller annotating (or popping columns from) a replayed record
        # corrupted the entry every future hit was served from.
        cache = ResultCache()
        cache.put("k", [{"scenario": 0, "total_carbon_g": 1.0}])
        replay = cache.get("k")
        replay[0]["total_carbon_g"] = 999.0
        replay[0]["injected"] = True
        assert cache.get("k") == ({"scenario": 0, "total_carbon_g": 1.0},)
        assert cache.get("k")[0] is not cache.get("k")[0]

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", [])
        cache.put("b", [])
        assert cache.get("a") == ()  # refresh a
        cache.put("c", [])  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == ()
        assert cache.get("c") == ()

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


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
# Shared compile cache
# ---------------------------------------------------------------------------
class TestSharedCompileCache:
    def test_stats_track_hits_across_runs(self):
        from repro.api import Session

        cache = SharedCompileCache()
        session = Session(batch_estimator=cache.estimator)
        session.sweep(SPEC)
        first = cache.stats()
        assert first["template_misses"] > 0
        session.sweep(SPEC)
        second = cache.stats()
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

    def test_identical_resubmission_is_cached(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        try:
            first = manager.submit(SPEC)
            assert wait_for(lambda: first.state == "done")
            second = manager.submit(dict(SPEC))
            assert wait_for(lambda: second.state == "done")
            assert second.cached and not first.cached
            assert second.store_path.read_bytes() == first.store_path.read_bytes()
            snap = manager.metrics_snapshot()
            assert snap["result_cache"]["hits"] >= 1
            assert snap["counters"]["sweeps_served_from_cache"] == 1
        finally:
            manager.shutdown()

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
