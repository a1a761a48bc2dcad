"""Worker-death and hung-worker chaos: supervision, requeue, respawn.

The acceptance bar: killing or hanging a pool worker mid-group is
*detected*, the in-flight scenarios are requeued onto a respawned pool,
and the finished store is byte-identical to a fault-free run — no
duplicate, missing or torn rows.  ``die`` faults claim their firings
through marker files under ``state_dir``, so a respawned worker does not
re-fire them; that is what makes these runs deterministic.
"""

from __future__ import annotations

import time

import pytest
from chaos_helpers import (
    CHAOS_COUNT,
    CHAOS_SPEC,
    baseline_bytes,
    baseline_records,
    read_rows,
)

from repro.api import Session
from repro.resilience import (
    ChaosPlan,
    Fault,
    ResiliencePolicy,
    RetryPolicy,
    WorkerLostError,
    error_info,
    is_error_record,
)

RETRY_ONCE = RetryPolicy(max_attempts=1, backoff_base_s=0.0)


def _run(tmp_path, *, mp_context, faults, policy):
    """One resilient jobs=2 sweep with the given chaos, streamed to disk."""
    state_dir = tmp_path / f"chaos-state-{mp_context}"
    out = tmp_path / f"out-{mp_context}.jsonl"
    session = Session(
        jobs=2,
        mp_context=mp_context,
        resilience=policy,
        chaos=ChaosPlan(faults=faults, state_dir=str(state_dir)),
    )
    result = session.sweep(CHAOS_SPEC, out=out, collect_records=False)
    return result, out


class TestWorkerDeath:
    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_mid_group_death_requeues_and_finishes_identically(
        self, tmp_path, mp_context
    ):
        policy = ResiliencePolicy(retry=RETRY_ONCE)
        result, out = _run(
            tmp_path,
            mp_context=mp_context,
            faults=(Fault(scenario=5, kind="die"),),
            policy=policy,
        )
        assert result.summary.error_count == 0
        rows = read_rows(out)
        assert len(rows) == CHAOS_COUNT
        assert len({row["scenario"] for row in rows}) == CHAOS_COUNT
        assert out.read_bytes() == baseline_bytes()

    def test_death_on_batch_backend(self, tmp_path):
        # A death in the last template group: the final chunk is requeued.
        policy = ResiliencePolicy(retry=RETRY_ONCE)
        result, out = _run(
            tmp_path,
            mp_context="fork",
            faults=(Fault(scenario=CHAOS_COUNT - 1, kind="die"),),
            policy=policy,
        )
        assert result.summary.error_count == 0
        assert out.read_bytes() == baseline_bytes()


class TestHungWorker:
    def test_hung_worker_killed_requeued_and_finished_identically(self, tmp_path):
        # One scenario sleeps far beyond the soft deadline; the watchdog
        # must kill the pool, requeue, and (the fault now spent) finish.
        policy = ResiliencePolicy(
            retry=RETRY_ONCE,
            scenario_timeout_s=0.3,
            timeout_grace_s=1.0,
        )
        result, out = _run(
            tmp_path,
            mp_context="fork",
            faults=(Fault(scenario=2, kind="delay", seconds=60),),
            policy=policy,
        )
        assert result.summary.error_count == 0
        assert out.read_bytes() == baseline_bytes()


class TestStreaming:
    def test_rows_stream_while_the_last_chunk_is_still_running(self, tmp_path):
        # The grid spans more chunks than workers and its last scenario
        # sleeps: the earlier chunks' rows must reach the store, and
        # progress, before that sleep ends.
        delay_s = 2.0
        state_dir = tmp_path / "state"
        session = Session(
            jobs=2,
            mp_context="fork",
            resilience=ResiliencePolicy(retry=RETRY_ONCE),
            chaos=ChaosPlan(
                faults=(Fault(scenario=CHAOS_COUNT - 1, kind="delay", seconds=delay_s),),
                state_dir=str(state_dir),
            ),
        )
        calls = []
        out = tmp_path / "out.jsonl"
        session.sweep(
            CHAOS_SPEC,
            out=out,
            progress=lambda done, total: calls.append(time.time()),
            collect_records=False,
        )
        assert len(calls) == CHAOS_COUNT
        # The fault claims its firing (a marker-file append) as it starts
        # to sleep.
        [marker] = state_dir.iterdir()
        assert calls[0] < marker.stat().st_mtime + delay_s
        serial = tmp_path / "serial.jsonl"
        Session(jobs=1).sweep(CHAOS_SPEC, out=serial, collect_records=False)
        assert out.read_bytes() == serial.read_bytes()


class TestRespawnBudget:
    def test_exhausted_budget_degrades_to_worker_lost_records(self, tmp_path):
        # The fault re-fires on every respawn (times=999), so the budget
        # runs out and the unfinished scenarios become worker-lost rows.
        policy = ResiliencePolicy(retry=RETRY_ONCE, max_pool_respawns=1)
        result, out = _run(
            tmp_path,
            mp_context="fork",
            faults=(Fault(scenario=5, kind="die", times=999),),
            policy=policy,
        )
        rows = read_rows(out)
        assert len(rows) == CHAOS_COUNT
        assert len({row["scenario"] for row in rows}) == CHAOS_COUNT
        errors = [row for row in rows if is_error_record(row)]
        assert errors, "budget exhaustion must yield error records"
        assert result.summary.error_count == len(errors)
        assert {error_info(row)["code"] for row in errors} == {"worker-lost"}
        # Rows that did evaluate match the fault-free reference exactly.
        reference = {record["scenario"]: record for record in baseline_records()}
        for row in rows:
            if not is_error_record(row):
                assert row == reference[row["scenario"]]

    def test_exhausted_budget_raises_in_raise_mode(self, tmp_path):
        policy = ResiliencePolicy(
            retry=RETRY_ONCE, max_pool_respawns=0, on_error="raise"
        )
        state_dir = tmp_path / "state"
        session = Session(
            jobs=2,
            mp_context="fork",
            resilience=policy,
            chaos=ChaosPlan(
                faults=(Fault(scenario=5, kind="die", times=999),),
                state_dir=str(state_dir),
            ),
        )
        with pytest.raises(WorkerLostError):
            session.sweep(CHAOS_SPEC)


class TestChaosGuards:
    def test_parallel_chaos_requires_resilience(self):
        with pytest.raises(ValueError):
            Session(jobs=2, chaos=ChaosPlan(faults=(Fault(scenario=0),)))

    def test_parallel_chaos_requires_state_dir(self):
        with pytest.raises(ValueError):
            Session(
                jobs=2,
                resilience=ResiliencePolicy(),
                chaos=ChaosPlan(faults=(Fault(scenario=0),)),
            )
