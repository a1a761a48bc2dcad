"""Serve-layer chaos: partial jobs end-to-end and shutdown escalation.

The job server must degrade, not break: injected scenario failures leave
a terminal ``partial`` job whose store is bit-identical to a plain
resilient sweep (serve or not), and a graceful shutdown
whose grace period expires escalates to interrupt-and-persist so a
restarted manager resumes to a byte-identical store.
"""

from __future__ import annotations

import json
import time

from chaos_helpers import CHAOS_COUNT, CHAOS_SPEC, baseline_bytes, read_rows

from repro.api import Session
from repro.resilience import ChaosPlan, Fault, ResiliencePolicy, RetryPolicy
from repro.serve.jobs import TERMINAL_STATES, JobManager

CONTAIN = ResiliencePolicy(retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0))
FAULTS = (Fault(scenario=1, times=999), Fault(scenario=6, times=999))

#: A 0.15 s delay before every scenario makes a job interruptible mid-run.
SLOW = ChaosPlan(
    faults=tuple(
        Fault(scenario=index, kind="delay", seconds=0.15)
        for index in range(CHAOS_COUNT)
    )
)


def wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestServePartialParity:
    def test_partial_job_store_bit_identical_to_plain_resilient_sweep(
        self, tmp_path
    ):
        # Reference: a plain serial resilient sweep with the same injected
        # faults.
        reference = tmp_path / "reference.jsonl"
        Session(resilience=CONTAIN, chaos=ChaosPlan(faults=FAULTS)).sweep(
            CHAOS_SPEC, out=reference, collect_records=False
        )

        # Serve run: default containment policy.
        manager = JobManager(
            tmp_path / "jobs", workers=1, chaos=ChaosPlan(faults=FAULTS)
        )
        manager.start()
        try:
            job = manager.submit(CHAOS_SPEC)
            assert wait_for(lambda: job.state in TERMINAL_STATES)
            assert job.state == "partial"
            assert job.errors == {
                "count": 2,
                "retried": 0,
                "codes": {"injected": 2},
            }
            assert job.store_path.read_bytes() == reference.read_bytes()
        finally:
            manager.shutdown()

    def test_partial_errors_survive_recovery(self, tmp_path):
        manager = JobManager(
            tmp_path, workers=1, chaos=ChaosPlan(faults=FAULTS)
        )
        manager.start()
        try:
            job = manager.submit(CHAOS_SPEC)
            assert wait_for(lambda: job.state == "partial")
            persisted = json.loads(
                (tmp_path / f"{job.id}.json").read_text()
            )
            assert persisted["state"] == "partial"
            assert persisted["errors"]["codes"] == {"injected": 2}
        finally:
            manager.shutdown()
        adopted = JobManager(tmp_path, workers=1)
        jobs = adopted.recover()
        assert [j.state for j in jobs] == ["partial"]
        assert jobs[0].errors["count"] == 2


class TestShutdownEscalation:
    def test_expired_grace_interrupts_and_resumes_byte_identical(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", workers=1, chaos=SLOW)
        manager.start()
        job = manager.submit(CHAOS_SPEC)
        assert wait_for(lambda: job.done >= 2, timeout=30.0)

        # The job needs ~0.15s x 32 more; a 0.3s grace cannot drain it.
        start = time.monotonic()
        manager.shutdown(drain=True, timeout=0.3)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # escalated instead of waiting out the sweep
        assert job.state == "queued"  # persisted resumable
        rows = read_rows(job.store_path)
        assert 0 < len(rows) < job.scenario_count

        # A restarted manager resumes and completes byte-identically.
        adopted = JobManager(tmp_path / "jobs", workers=1)
        adopted.start()
        try:
            resumed = adopted.get(job.id)
            assert wait_for(lambda: resumed.state == "done", timeout=60.0)
            assert resumed.store_path.read_bytes() == baseline_bytes()
        finally:
            adopted.shutdown()

    def test_generous_grace_drains_normally(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.start()
        job = manager.submit(CHAOS_SPEC)
        manager.shutdown(drain=True, timeout=60.0)
        assert job.state == "done"
