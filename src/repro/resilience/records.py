"""Structured error records and the contained-evaluation loop.

A scenario whose estimator raises becomes one *error record* in the
result store instead of aborting the sweep: the scenario's own
parameter columns (:meth:`repro.sweep.spec.Scenario.to_record`) plus an
``"error"`` column holding canonical JSON — error code, exception class,
truncated message, a traceback digest and the attempt count.  Metric
columns are absent, which is how readers (Pareto, best/top-N, caching)
recognise and skip failed rows.

The ``error`` payload is rendered exactly the same way the existing
``overrides``/``packaging_params`` columns are (one canonical
``json.dumps(..., sort_keys=True)`` string), and the digest hashes only
:func:`traceback.format_exception_only` — the exception type and
message, *not* the stack — so the same failure yields a bit-identical
error record whichever call path raised it (in-process or in a worker
process, group compile or per-scenario evaluation).
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.resilience.policy import ResiliencePolicy

Record = Dict[str, Any]

#: Record column carrying the structured error payload.
ERROR_KEY = "error"

#: Characters of the exception message kept in the error payload.
_MESSAGE_LIMIT = 200

#: Hex characters of the sha256 traceback digest kept in the payload.
_DIGEST_LENGTH = 12


def error_code_of(exc: BaseException) -> str:
    """Short machine code classifying an evaluation failure.

    Exception classes may declare their own via a ``sweep_error_code``
    attribute (the chaos harness and the worker-supervision errors do);
    everything else is a generic ``evaluation-error``.
    """
    code = getattr(exc, "sweep_error_code", None)
    return str(code) if code else "evaluation-error"


def error_digest(exc: BaseException) -> str:
    """Stable digest of the failure identity (type + message only).

    Deliberately excludes the traceback *stack*: the same failure can be
    reached through different call paths (in-process or in a worker), and
    error records must stay bit-identical across them.
    """
    summary = "".join(traceback.format_exception_only(type(exc), exc))
    return hashlib.sha256(summary.encode("utf-8")).hexdigest()[:_DIGEST_LENGTH]


def error_record(scenario: Any, exc: BaseException, attempts: int = 1) -> Record:
    """One structured error record for a scenario that failed to evaluate."""
    message = str(exc)
    if len(message) > _MESSAGE_LIMIT:
        message = message[: _MESSAGE_LIMIT - 3] + "..."
    record: Record = scenario.to_record()
    record[ERROR_KEY] = json.dumps(
        {
            "attempts": int(attempts),
            "code": error_code_of(exc),
            "digest": error_digest(exc),
            "exception": type(exc).__name__,
            "message": message,
        },
        sort_keys=True,
    )
    return record


def is_error_record(record: Mapping[str, Any]) -> bool:
    """True when ``record`` is a contained-failure row (no metrics)."""
    return bool(record.get(ERROR_KEY))


def error_info(record: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The decoded error payload of an error record (``None`` otherwise)."""
    payload = record.get(ERROR_KEY)
    if not payload:
        return None
    if isinstance(payload, Mapping):  # already decoded (in-memory use)
        return dict(payload)
    try:
        decoded = json.loads(payload)
    except (TypeError, ValueError):
        return None
    return decoded if isinstance(decoded, dict) else None


def evaluate_contained(
    evaluate: Callable[[Any], Record],
    scenario: Any,
    policy: ResiliencePolicy,
    chaos: Optional[Any] = None,
    in_worker: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[Record, int]:
    """Evaluate one scenario under a resilience policy.

    Runs the retry loop around ``evaluate(scenario)`` — firing any
    chaos-plan faults for the scenario first, so injected failures pass
    through exactly the containment machinery real ones do — and returns
    ``(record, retries)``: either the evaluated record or, with
    ``on_error="record"``, a structured error record after the attempts
    are exhausted.  ``on_error="raise"`` re-raises the final failure.

    Args:
        evaluate: Single-scenario evaluation callable (the batch
            estimator's ``evaluate_scenario``).
        scenario: The scenario to evaluate.
        policy: Retry/containment configuration.
        chaos: Optional :class:`repro.resilience.chaos.ChaosPlan`.
        in_worker: True inside a pool worker process (lets ``die``
            faults terminate the worker instead of raising).
        sleep: Backoff sleeper (injectable for tests).
    """
    retry = policy.retry
    attempt = 0
    while True:
        attempt += 1
        try:
            if chaos is not None:
                chaos.fire(scenario.index, in_worker=in_worker, sleep=sleep)
            return evaluate(scenario), attempt - 1
        except Exception as exc:  # noqa: BLE001 - containment boundary
            if attempt < retry.max_attempts and retry.classify(exc):
                delay = retry.delay_s(attempt, key=str(scenario.index))
                if delay > 0:
                    sleep(delay)
                continue
            if policy.on_error == "raise":
                raise
            return error_record(scenario, exc, attempts=attempt), attempt - 1
