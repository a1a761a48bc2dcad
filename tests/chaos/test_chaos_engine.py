"""Injected-exception chaos: error-record parity across evaluation paths.

The acceptance bar: a sweep with injected per-scenario exceptions finishes
with structured error records that are *bit-identical* whether scenarios
are contained in-process or in pool workers, that equal error records built
independently by :func:`repro.resilience.error_record`, and every non-error
row matches the fault-free scalar oracle exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.resilience import (
    ChaosPlan,
    Fault,
    InjectedFault,
    ResiliencePolicy,
    RetryPolicy,
    error_info,
    error_record,
    is_error_record,
)
from repro.sweep.spec import SweepSpec

from chaos_helpers import CHAOS_COUNT, CHAOS_SPEC, baseline_records, read_rows

FAULTS = (Fault(scenario=1, times=99), Fault(scenario=6, times=99))
CONTAIN = ResiliencePolicy(retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0))


def _chaos(faults=FAULTS, state_dir=None) -> ChaosPlan:
    # A fresh plan per run: firing claims are per-plan state.  Parallel
    # runs need a state_dir so claims survive across worker processes.
    return ChaosPlan(
        faults=faults, state_dir=str(state_dir) if state_dir is not None else None
    )


def _session(jobs, tmp_path, policy=CONTAIN, faults=FAULTS) -> Session:
    """In-process (jobs=1) or pool (jobs=2, fork) session with fresh chaos."""
    if jobs == 1:
        return Session(resilience=policy, chaos=_chaos(faults))
    return Session(
        jobs=jobs,
        mp_context="fork",
        resilience=policy,
        chaos=_chaos(faults, tmp_path / "chaos-state"),
    )


class TestErrorRecordParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_contained_sweep_completes_with_error_records(self, jobs, tmp_path):
        result = _session(jobs, tmp_path).sweep(CHAOS_SPEC)
        records = [dict(record) for record in result.records]
        assert len(records) == CHAOS_COUNT
        errors = [record for record in records if is_error_record(record)]
        assert sorted(record["scenario"] for record in errors) == [1, 6]
        for record, reference in zip(records, baseline_records()):
            if not is_error_record(record):
                assert record == reference
        assert result.summary.error_count == 2
        assert dict(result.summary.error_codes) == {"injected": 2}
        assert result.summary.retry_count == 0
        # The best record ignores error rows.
        assert result.best is not None
        assert result.best["total_carbon_g"] == min(
            record["total_carbon_g"]
            for record in records
            if not is_error_record(record)
        )

    def test_scalar_and_batch_error_records_bit_identical(self):
        # The engine's rows against independently built ones: the scalar
        # oracle's records, with error_record() at the faulted scenarios.
        result = Session(resilience=CONTAIN, chaos=_chaos()).sweep(CHAOS_SPEC)
        faulted = {fault.scenario for fault in FAULTS}
        expected = [
            error_record(scenario, InjectedFault("injected fault"))
            if scenario.index in faulted
            else reference
            for scenario, reference in zip(
                SweepSpec.from_dict(CHAOS_SPEC).expand(), baseline_records()
            )
        ]
        assert [json.dumps(dict(r), sort_keys=True) for r in result.records] == [
            json.dumps(r, sort_keys=True) for r in expected
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_collected_records_equal_the_oracle_with_error_rows(self, jobs, tmp_path):
        # The one-row blocks of contained scenarios read back through the
        # record sequence like the kernel's blocks, at every jobs count.
        result = _session(jobs, tmp_path).sweep(CHAOS_SPEC)
        faulted = {fault.scenario for fault in FAULTS}
        expected = tuple(
            error_record(scenario, InjectedFault("injected fault"))
            if scenario.index in faulted
            else reference
            for scenario, reference in zip(
                SweepSpec.from_dict(CHAOS_SPEC).expand(), baseline_records()
            )
        )
        assert result.records == expected
        result.records[0]["nodes"].append(0.0)  # a read owns its lists
        assert result.records[0] == expected[0]
        assert [result.records[index] for index in sorted(faulted)] == [
            expected[index] for index in sorted(faulted)
        ]

    def test_error_payload_shape(self):
        result = Session(resilience=CONTAIN, chaos=_chaos()).sweep(CHAOS_SPEC)
        error = next(r for r in result.records if is_error_record(r))
        info = error_info(error)
        assert info["code"] == "injected"
        assert info["exception"] == "InjectedFault"
        assert info["attempts"] == 1
        assert info["message"] == "injected fault"
        assert len(info["digest"]) == 12

    def test_store_bytes_identical_across_backends(self, tmp_path):
        # In-process containment vs contained evaluation in pool workers.
        paths = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            _session(jobs, tmp_path / f"state{jobs}").sweep(
                CHAOS_SPEC, out=path, collect_records=False
            )
            paths[jobs] = path
        serial_bytes = paths[1].read_bytes()
        assert serial_bytes == paths[2].read_bytes()
        rows = read_rows(paths[1])
        assert len(rows) == CHAOS_COUNT
        assert len({row["scenario"] for row in rows}) == CHAOS_COUNT

    def test_raise_mode_propagates(self):
        session = Session(
            resilience=ResiliencePolicy(on_error="raise"), chaos=_chaos()
        )
        with pytest.raises(InjectedFault):
            session.sweep(CHAOS_SPEC)


class TestRetrySucceeds:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_fault_retried_to_byte_identical_run(self, jobs, tmp_path):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        result = _session(
            jobs, tmp_path, policy=policy, faults=(Fault(scenario=3, times=1),)
        ).sweep(CHAOS_SPEC)
        assert [dict(record) for record in result.records] == list(
            baseline_records()
        )
        assert result.summary.error_count == 0
        assert result.summary.retry_count == 1

    def test_retry_attempt_count_lands_in_error_payload(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        )
        result = Session(resilience=policy, chaos=_chaos()).sweep(CHAOS_SPEC)
        error = next(r for r in result.records if is_error_record(r))
        assert error_info(error)["attempts"] == 3
        assert result.summary.retry_count == 4  # 2 scenarios x 2 retries
