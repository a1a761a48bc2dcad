"""Unit tests for :mod:`repro.resilience` — policies, records, chaos."""

from __future__ import annotations

import json

import pytest

from repro.resilience import (
    ChaosPlan,
    Fault,
    FatalSweepError,
    InjectedFault,
    ResiliencePolicy,
    RetryPolicy,
    ScenarioTimeoutError,
    TransientSweepError,
    WorkerLostError,
    error_code_of,
    error_digest,
    error_info,
    error_record,
    evaluate_contained,
    is_error_record,
)
from repro.sweep.spec import Scenario


def _scenario(index: int = 0) -> Scenario:
    return Scenario(index=index, base_kind="testcase", base_ref="ga102-3chiplet")


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_classify_default_retries_everything_nonfatal(self):
        policy = RetryPolicy()
        assert policy.classify(ValueError("x"))
        assert policy.classify(KeyError("x"))
        assert not policy.classify(FatalSweepError("x"))

    def test_classify_fatal_wins_over_retryable(self):
        policy = RetryPolicy(retryable=(Exception,), fatal=(KeyError,))
        assert not policy.classify(KeyError("x"))
        assert policy.classify(ValueError("x"))

    def test_classify_restricted_retryable(self):
        policy = RetryPolicy(retryable=(OSError,))
        assert policy.classify(OSError("x"))
        assert not policy.classify(ValueError("x"))
        # Transient sweep errors always retry, even under a restriction.
        assert policy.classify(TransientSweepError("x"))
        assert policy.classify(WorkerLostError("x"))
        assert policy.classify(ScenarioTimeoutError("x"))

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base_s=0.1,
            backoff_factor=2.0,
            backoff_max_s=0.5,
            jitter=0.2,
            seed=7,
        )
        delays = [policy.delay_s(attempt, key="42") for attempt in (1, 2, 3, 4)]
        again = [policy.delay_s(attempt, key="42") for attempt in (1, 2, 3, 4)]
        assert delays == again  # same seed/key/attempt -> same jitter
        for base, delay in zip((0.1, 0.2, 0.4, 0.5), delays):
            assert base <= delay <= base * 1.2
        # Different key or seed shifts the jitter deterministically.
        assert policy.delay_s(1, key="43") != policy.delay_s(1, key="42")
        other = RetryPolicy(
            backoff_base_s=0.1, jitter=0.2, seed=8
        )
        assert other.delay_s(1, key="42") != policy.delay_s(1, key="42")

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=3.0, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.3)


class TestResiliencePolicy:
    def test_defaults(self):
        policy = ResiliencePolicy()
        assert policy.on_error == "record"
        assert policy.scenario_timeout_s is None
        assert policy.retry.max_attempts == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(on_error="explode")
        for timeout in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scenario_timeout_s"):
                ResiliencePolicy(scenario_timeout_s=timeout)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_pool_respawns=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(timeout_grace_s=-1)


# ---------------------------------------------------------------------------
# Error records
# ---------------------------------------------------------------------------
class TestErrorRecords:
    def test_error_record_structure(self):
        record = error_record(_scenario(3), ValueError("boom"), attempts=2)
        assert record["scenario"] == 3
        assert record["base"] == "ga102-3chiplet"
        assert "total_carbon_g" not in record
        info = json.loads(record["error"])
        assert info == {
            "attempts": 2,
            "code": "evaluation-error",
            "digest": error_digest(ValueError("boom")),
            "exception": "ValueError",
            "message": "boom",
        }

    def test_is_error_record_and_info(self):
        record = error_record(_scenario(), ValueError("boom"))
        assert is_error_record(record)
        assert not is_error_record({"scenario": 0})
        assert error_info(record)["exception"] == "ValueError"
        assert error_info({"scenario": 0}) is None

    def test_error_code_comes_from_exception_attribute(self):
        assert error_code_of(ValueError("x")) == "evaluation-error"
        assert error_code_of(InjectedFault("x")) == "injected"
        assert error_code_of(WorkerLostError("x")) == "worker-lost"
        assert error_code_of(ScenarioTimeoutError("x")) == "timeout"

    def test_digest_ignores_stack_position(self):
        # The digest must be identical no matter where the exception was
        # raised (in-process and worker evaluations raise from different
        # frames).
        def deep(n):
            if n:
                return deep(n - 1)
            raise ValueError("same message")

        def catch(n):
            try:
                deep(n)
            except ValueError as exc:
                return error_digest(exc)

        assert catch(1) == catch(20)

    def test_message_truncated(self):
        record = error_record(_scenario(), ValueError("x" * 1000))
        info = json.loads(record["error"])
        assert len(info["message"]) <= 204  # limit + ellipsis


# ---------------------------------------------------------------------------
# evaluate_contained
# ---------------------------------------------------------------------------
class TestEvaluateContained:
    def test_success_passthrough(self):
        policy = ResiliencePolicy()
        record, retries = evaluate_contained(
            lambda s: {"scenario": s.index, "total_carbon_g": 1.0},
            _scenario(5),
            policy,
        )
        assert record == {"scenario": 5, "total_carbon_g": 1.0}
        assert retries == 0

    def test_retry_then_succeed(self):
        calls = []

        def flaky(scenario):
            calls.append(scenario.index)
            if len(calls) < 3:
                raise ValueError("transient")
            return {"scenario": scenario.index}

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        )
        record, retries = evaluate_contained(flaky, _scenario(1), policy)
        assert record == {"scenario": 1}
        assert retries == 2
        assert calls == [1, 1, 1]

    def test_exhaustion_records_error(self):
        def failing(scenario):
            raise ValueError("always")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        record, retries = evaluate_contained(failing, _scenario(2), policy)
        assert is_error_record(record)
        assert retries == 1
        assert error_info(record)["attempts"] == 2

    def test_exhaustion_raises_in_raise_mode(self):
        def failing(scenario):
            raise ValueError("always")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            on_error="raise",
        )
        with pytest.raises(ValueError):
            evaluate_contained(failing, _scenario(), policy)

    def test_fatal_never_retries(self):
        calls = []

        def fatal(scenario):
            calls.append(1)
            raise FatalSweepError("broken config")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, backoff_base_s=0.0)
        )
        record, retries = evaluate_contained(fatal, _scenario(), policy)
        assert is_error_record(record)
        assert retries == 0
        assert len(calls) == 1

    def test_backoff_uses_injected_sleep(self):
        slept = []

        def failing(scenario):
            raise ValueError("always")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.25, jitter=0.0)
        )
        evaluate_contained(failing, _scenario(), policy, sleep=slept.append)
        assert slept == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_chaos_fires_inside_containment(self):
        chaos = ChaosPlan(faults=(Fault(scenario=4, times=1),))
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        record, retries = evaluate_contained(
            lambda s: {"scenario": s.index}, _scenario(4), policy, chaos=chaos
        )
        assert record == {"scenario": 4}  # fault fired once, retry succeeded
        assert retries == 1


# ---------------------------------------------------------------------------
# ChaosPlan
# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault(scenario=0, kind="meteor")
        with pytest.raises(ValueError):
            Fault(scenario=0, times=0)
        with pytest.raises(ValueError):
            Fault(scenario=0, seconds=-1)

    def test_raise_fault_fires_times_then_disarms(self):
        plan = ChaosPlan(faults=(Fault(scenario=1, times=2),))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire(1)
        plan.fire(1)  # disarmed
        plan.fire(0)  # other scenarios never fire

    def test_delay_fault_sleeps(self):
        slept = []
        plan = ChaosPlan(faults=(Fault(scenario=2, kind="delay", seconds=3.5),))
        plan.fire(2, sleep=slept.append)
        assert slept == [3.5]

    def test_die_fault_degrades_to_raise_in_serial(self):
        plan = ChaosPlan(faults=(Fault(scenario=3, kind="die"),))
        with pytest.raises(InjectedFault):
            plan.fire(3, in_worker=False)

    def test_state_dir_claims_survive_plan_instances(self, tmp_path):
        state = str(tmp_path / "chaos")
        first = ChaosPlan(faults=(Fault(scenario=1, times=2),), state_dir=state)
        with pytest.raises(InjectedFault):
            first.fire(1)
        # A fresh plan object (e.g. in a respawned worker) sees the claim.
        second = ChaosPlan(faults=(Fault(scenario=1, times=2),), state_dir=state)
        with pytest.raises(InjectedFault):
            second.fire(1)
        second.fire(1)  # third firing: disarmed across instances
        first.fire(1)

    def test_reset_rearms(self, tmp_path):
        state = str(tmp_path / "chaos")
        plan = ChaosPlan(faults=(Fault(scenario=1),), state_dir=state)
        with pytest.raises(InjectedFault):
            plan.fire(1)
        plan.fire(1)
        plan.reset()
        with pytest.raises(InjectedFault):
            plan.fire(1)
