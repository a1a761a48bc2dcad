"""HTTP JSON API over the job manager (stdlib ``http.server`` only).

Endpoints (all JSON unless noted):

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
POST   ``/v1/sweeps``               Submit a sweep job (body: a sweep spec,
                                    or ``{"spec": {...}}``); 202 + job status
GET    ``/v1/sweeps``               List all jobs
GET    ``/v1/sweeps/{id}``          Job status / progress
GET    ``/v1/sweeps/{id}/results``  Stream the job's JSONL record store
                                    (``application/x-ndjson``, byte-exact)
GET    ``/v1/sweeps/{id}/pareto``   Pareto front (``?objectives=a,b``)
DELETE ``/v1/sweeps/{id}``          Cancel the job
GET    ``/v1/metrics``              Counters, queue depth, latency, caches
GET    ``/v1/healthz``              Liveness probe
====== ============================ ==========================================

Clients identify themselves for quota accounting with the ``X-Client-Id``
header (default ``"anonymous"``).  Errors are structured
(:mod:`repro.serve.errors`): ``{"error": {"code": ..., "message": ...}}``
with the matching HTTP status — 400 invalid spec, 404 unknown job, 409
invalid transition, 429 quota exhausted, 503 queue full or circuit open.
Transient-pressure errors (429/503) also carry a ``Retry-After`` header.
"""

from __future__ import annotations

import json
import math
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.errors import NotFoundError, ServeError, SpecError, error_message
from repro.serve.jobs import JobManager

__all__ = ["ServeServer", "create_server"]

_JOB_ROUTE = re.compile(r"^/v1/sweeps/(?P<id>[0-9a-f]+)(?P<tail>/results|/pareto)?$")

#: Default Pareto objectives when the query names none.
_DEFAULT_FRONT_METRICS = ("total_carbon_g", "power_w")


class _Handler(BaseHTTPRequestHandler):
    server_version = "eco-chip-serve"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- plumbing ---------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # quiet by default
            super().log_message(format, *args)

    def _client_id(self) -> str:
        return self.headers.get("X-Client-Id", "anonymous").strip() or "anonymous"

    def _send_json(
        self,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ServeError) -> None:
        headers = None
        if exc.retry_after is not None:
            # Retry-After is delta-seconds and integral; round up so a
            # client honouring it never retries inside the window.
            headers = {"Retry-After": str(max(1, math.ceil(exc.retry_after)))}
        self._send_json(exc.http_status, exc.payload(), headers=headers)

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("request body must be a JSON sweep spec")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc

    def _route(self) -> Tuple[str, Optional[str], Optional[str], Dict[str, list]]:
        parts = urlsplit(self.path)
        match = _JOB_ROUTE.match(parts.path)
        if match:
            tail = match.group("tail")
            return (
                parts.path,
                match.group("id"),
                tail.lstrip("/") if tail else None,
                parse_qs(parts.query),
            )
        return parts.path, None, None, parse_qs(parts.query)

    # -- methods ----------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, _, _, _ = self._route()
        try:
            if path != "/v1/sweeps":
                raise NotFoundError(f"no such endpoint: POST {path}")
            payload = self._read_json_body()
            job = self.manager.submit(payload, client=self._client_id())
            self._send_json(202, job.to_dict())
        except ServeError as exc:
            self._send_error(exc)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, job_id, tail, query = self._route()
        try:
            if path == "/v1/healthz":
                self._send_json(200, {"status": "ok"})
            elif path == "/v1/metrics":
                self._send_json(200, self.manager.metrics_snapshot())
            elif path == "/v1/sweeps":
                self._send_json(
                    200, {"jobs": [j.to_dict() for j in self.manager.list_jobs()]}
                )
            elif job_id is not None and tail is None:
                self._send_json(200, self.manager.get(job_id).to_dict())
            elif job_id is not None and tail == "results":
                self._send_results(job_id)
            elif job_id is not None and tail == "pareto":
                self._send_pareto(job_id, query)
            else:
                raise NotFoundError(f"no such endpoint: GET {path}")
        except ServeError as exc:
            self._send_error(exc)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path, job_id, tail, _ = self._route()
        try:
            if job_id is None or tail is not None:
                raise NotFoundError(f"no such endpoint: DELETE {path}")
            job = self.manager.cancel(job_id)
            self._send_json(200, job.to_dict())
        except ServeError as exc:
            self._send_error(exc)

    # -- endpoint bodies --------------------------------------------------------------
    def _send_results(self, job_id: str) -> None:
        """Stream the job's record store verbatim (bit-identical rows)."""
        job = self.manager.get(job_id)
        if not job.store_path.is_file():
            body = b""
            size = 0
        else:
            size = job.store_path.stat().st_size
            body = None
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(size))
        self.send_header("X-Job-State", job.state)
        self.end_headers()
        if body is not None:
            return
        with open(job.store_path, "rb") as handle:
            # Stream exactly the size advertised: a job appending rows
            # concurrently must not overrun the Content-Length.
            remaining = size
            while remaining > 0:
                chunk = handle.read(min(65536, remaining))
                if not chunk:
                    break
                self.wfile.write(chunk)
                remaining -= len(chunk)

    def _send_pareto(self, job_id: str, query: Dict[str, list]) -> None:
        from repro.core.explorer import pareto_front
        from repro.sweep.engine import check_objectives
        from repro.sweep.store import load_rows

        job = self.manager.get(job_id)
        names = query.get("objectives", [",".join(_DEFAULT_FRONT_METRICS)])[0]
        objectives = [name.strip() for name in names.split(",") if name.strip()]
        # The rule of eco-chip sweep --pareto, checked before the store is read.
        try:
            check_objectives(objectives, self.manager.include_cost)
        except (KeyError, ValueError) as exc:
            raise SpecError(error_message(exc)) from exc
        if not job.store_path.is_file():
            self._send_json(
                200, {"id": job.id, "objectives": objectives, "front": []}
            )
            return
        # Error records (resilience containment) carry no metric columns;
        # the front is computed over the successful rows only.
        rows = [row for row in load_rows(job.store_path) if not row.record.get("error")]
        try:
            front = pareto_front(rows, objectives)
        except KeyError as exc:  # a stored row lacking a known column
            raise SpecError(error_message(exc)) from exc
        self._send_json(
            200,
            {
                "id": job.id,
                "objectives": objectives,
                "front": [row.record for row in front],
            },
        )


class ServeServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        verbose: bool = False,
    ):
        self.manager = manager
        self.verbose = verbose
        super().__init__(address, _Handler)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop serving and shut the manager down (see
        :meth:`JobManager.shutdown` for drain semantics)."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown(drain=drain, timeout=timeout)


def create_server(
    host: str = "127.0.0.1",
    port: int = 8437,
    *,
    manager: Optional[JobManager] = None,
    verbose: bool = False,
    **manager_kwargs: Any,
) -> ServeServer:
    """Build (and start) a server: manager, worker pool, adopted jobs.

    ``port=0`` binds an ephemeral port (``server.server_address`` has the
    real one) — handy for tests.  Extra keyword arguments construct the
    :class:`JobManager` (``store_dir`` is required then).
    """
    if manager is None:
        manager = JobManager(**manager_kwargs)
    server = ServeServer((host, port), manager, verbose=verbose)
    manager.start()
    return server
