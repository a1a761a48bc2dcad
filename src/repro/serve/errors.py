"""Structured errors shared by the HTTP API and the CLI.

Every failure the server reports — and every failure ``eco-chip sweep`` /
``eco-chip serve`` print — goes through one vocabulary: a short machine
error ``code`` plus a human message.  Over HTTP that renders as a JSON
body (:meth:`ServeError.payload`) with the matching status; on a terminal
it renders as one line (:func:`format_error_text`), so scripts can match
the same codes in both places.

Exit codes split the two failure classes the CLI can hit:

* :data:`EXIT_SPEC_ERROR` (2) — the request itself is wrong (bad spec,
  unknown preset/axis/format, invalid flag values); re-running without
  changing it cannot succeed.
* :data:`EXIT_RUNTIME_ERROR` (3) — the request was valid but evaluation
  or I/O failed at run time (disk full, port in use, ...); a retry may
  succeed.

This module imports nothing from the rest of the package so the CLI can
use it without paying for the server stack.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Process exit code for spec/argument validation failures.
EXIT_SPEC_ERROR = 2
#: Process exit code for runtime (evaluation / I/O) failures.
EXIT_RUNTIME_ERROR = 3


def format_error_text(code: str, message: str) -> str:
    """One-line terminal rendering of a structured error.

    Keeps the ``error:`` prefix long used by the CLI, with the machine
    code in brackets: ``error: [invalid-spec] unknown sweep preset ...``.
    """
    return f"error: [{code}] {message}"


def error_message(exc: BaseException) -> str:
    """The human message of ``exc``.

    ``str()`` of a one-argument :class:`KeyError` is the *repr* of its
    argument, so a lookup error raised with a sentence would print wrapped
    in quotes; this returns the sentence itself.
    """
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc)


class ServeError(Exception):
    """Base of all structured service errors.

    Attributes:
        code: Short machine-readable error code (stable API).
        http_status: Status the HTTP layer responds with.
        exit_code: Exit code the CLI maps this error class to.
        retry_after: Seconds after which a retry may succeed; rendered as
            a ``Retry-After`` header (and ``retry_after_s`` in the JSON
            body) when set.  Error classes describing transient pressure
            set :attr:`default_retry_after`.
    """

    code = "internal"
    http_status = 500
    exit_code = EXIT_RUNTIME_ERROR
    #: Class-level retry hint used when the constructor gets none.
    default_retry_after: Optional[float] = None

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.message = message
        self.retry_after = (
            retry_after if retry_after is not None else self.default_retry_after
        )

    def payload(self) -> Dict[str, Any]:
        """JSON body of the HTTP error response."""
        body: Dict[str, Any] = {"error": {"code": self.code, "message": self.message}}
        if self.retry_after is not None:
            body["error"]["retry_after_s"] = self.retry_after
        return body

    def text(self) -> str:
        """Terminal rendering (same code and message as :meth:`payload`)."""
        return format_error_text(self.code, self.message)


class SpecError(ServeError):
    """The submitted sweep spec (or CLI arguments) failed validation."""

    code = "invalid-spec"
    http_status = 400
    exit_code = EXIT_SPEC_ERROR


class NotFoundError(ServeError):
    """No job with the requested id."""

    code = "not-found"
    http_status = 404


class QuotaExceededError(ServeError):
    """The client's scenario-count quota cannot cover this submission."""

    code = "quota-exceeded"
    http_status = 429
    default_retry_after = 5.0


class QueueFullError(ServeError):
    """The bounded job queue is full; retry after jobs drain."""

    code = "queue-full"
    http_status = 503
    default_retry_after = 1.0


class CircuitOpenError(ServeError):
    """The circuit breaker for this job class is open (recent failures)."""

    code = "circuit-open"
    http_status = 503


class JobStateError(ServeError):
    """The job is in a state that does not allow the requested transition."""

    code = "conflict"
    http_status = 409


class RuntimeJobError(ServeError):
    """A job failed while evaluating (captured in the job's error field)."""

    code = "runtime"
    http_status = 500
