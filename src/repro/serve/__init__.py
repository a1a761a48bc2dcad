"""``repro.serve`` — sweep-as-a-service over :class:`repro.api.Session`.

A stdlib-only HTTP JSON job server: submit SweepSpec-shaped jobs, poll
status, stream crash-safe JSONL results, cancel, and scrape metrics —
with one process-wide compiled-template cache, so a repeat submission
re-evaluates on warm templates instead of recompiling them.  See
:mod:`repro.serve.app` for the endpoint table and ``eco-chip serve`` for
the CLI entry point.

Submodules are imported lazily so lightweight users (e.g. the CLI's
error-code vocabulary in :mod:`repro.serve.errors`) do not pay for the
estimator stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "CircuitBreaker",
    "JobManager",
    "Metrics",
    "QuotaTracker",
    "ServeError",
    "ServeServer",
    "create_server",
]

#: attribute -> defining submodule, resolved on first access.
_EXPORTS = {
    "CircuitBreaker": "repro.serve.breaker",
    "JobManager": "repro.serve.jobs",
    "Metrics": "repro.serve.metrics",
    "QuotaTracker": "repro.serve.quota",
    "ServeError": "repro.serve.errors",
    "ServeServer": "repro.serve.app",
    "create_server": "repro.serve.app",
}

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.app import ServeServer, create_server
    from repro.serve.breaker import CircuitBreaker
    from repro.serve.errors import ServeError
    from repro.serve.jobs import JobManager
    from repro.serve.metrics import Metrics
    from repro.serve.quota import QuotaTracker


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
