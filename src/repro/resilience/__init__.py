"""``repro.resilience`` — fault containment for production-scale sweeps.

Three pieces, layered under :class:`repro.sweep.engine.SweepEngine` and
:mod:`repro.serve`:

* **Policies** (:mod:`repro.resilience.policy`): :class:`RetryPolicy`
  (attempts, capped exponential backoff, deterministic jitter,
  retryable-vs-fatal classification) and :class:`ResiliencePolicy`
  (containment mode, per-scenario soft timeout, pool-respawn budget).
* **Error records** (:mod:`repro.resilience.records`): a raising
  scenario becomes one structured row in the result store — scenario
  columns plus a canonical-JSON ``error`` payload — bit-identical across
  ``jobs`` counts, contained in-process or in a worker.
* **Chaos** (:mod:`repro.resilience.chaos`): seeded deterministic fault
  injection (exceptions, delays, simulated worker death at configured
  scenario indices) so every failure path above is testable.
"""

from __future__ import annotations

from repro.resilience.chaos import ChaosPlan, Fault, InjectedFault
from repro.resilience.policy import (
    FatalSweepError,
    ResiliencePolicy,
    RetryPolicy,
    ScenarioTimeoutError,
    TransientSweepError,
    WorkerLostError,
)
from repro.resilience.records import (
    ERROR_KEY,
    error_code_of,
    error_digest,
    error_info,
    error_record,
    evaluate_contained,
    is_error_record,
)

__all__ = [
    "ChaosPlan",
    "ERROR_KEY",
    "Fault",
    "FatalSweepError",
    "InjectedFault",
    "ResiliencePolicy",
    "RetryPolicy",
    "ScenarioTimeoutError",
    "TransientSweepError",
    "WorkerLostError",
    "error_code_of",
    "error_digest",
    "error_info",
    "error_record",
    "evaluate_contained",
    "is_error_record",
]
