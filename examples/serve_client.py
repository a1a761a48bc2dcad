#!/usr/bin/env python3
"""Sweep-as-a-service: drive an ``eco-chip serve`` server over HTTP.

``ServeClient`` is a dependency-free (``urllib``) client for the job
server's JSON API: submit a sweep spec, poll it to completion, stream the
result rows, fetch the Pareto front, and scrape the metrics endpoint.

Run standalone (spins up an in-process server on an ephemeral port, the
exact server ``eco-chip serve`` runs)::

    python examples/serve_client.py

or point it at a real server::

    eco-chip serve --port 8437 &
    python examples/serve_client.py http://127.0.0.1:8437
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Sequence


class ServeError(RuntimeError):
    """A structured error response from the server."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{code}] {message} (HTTP {status})")
        self.status = status
        self.code = code


class ServeClient:
    """Minimal client for the ``repro.serve`` HTTP JSON API."""

    def __init__(self, base_url: str, client_id: str = "serve-client-example"):
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id

    # -- plumbing -----------------------------------------------------------------
    def _request(self, method: str, path: str, body: Optional[dict] = None) -> Any:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method
        )
        req.add_header("X-Client-Id", self.client_id)
        if data is not None:
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                raw = resp.read()
                content_type = resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            detail = json.loads(exc.read()).get("error", {})
            raise ServeError(
                exc.code,
                detail.get("code", "unknown"),
                detail.get("message", "unknown error"),
            ) from None
        if content_type.startswith("application/json"):
            return json.loads(raw)
        return raw

    # -- API ----------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a sweep spec; returns the job document (``job["id"]``...)."""
        return self._request("POST", "/v1/sweeps", spec)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/sweeps/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/sweeps")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/sweeps/{job_id}")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def results(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """The job's result records, decoded from the JSONL stream."""
        raw = self._request("GET", f"/v1/sweeps/{job_id}/results")
        for line in raw.decode("utf-8").splitlines():
            if line.strip():
                yield json.loads(line)

    def pareto(
        self, job_id: str, objectives: Sequence[str] = ("total_carbon_g", "power_w")
    ) -> List[Dict[str, Any]]:
        path = f"/v1/sweeps/{job_id}/pareto?objectives={','.join(objectives)}"
        return self._request("GET", path)["front"]

    def wait(self, job_id: str, timeout: float = 600.0, poll_s: float = 0.1) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its document."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.status(job_id)
            if job["state"] in ("done", "partial", "failed", "cancelled"):
                return job
            time.sleep(poll_s)
        raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")


# ---------------------------------------------------------------------------
# Demo
# ---------------------------------------------------------------------------
SPEC = {
    "name": "serve-demo",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
    "carbon_sources": ["coal", "renewable_mix"],
}


def main(argv: Sequence[str]) -> int:
    server = None
    if argv:
        base_url = argv[0]
    else:
        # No server given: run one in-process on an ephemeral port.
        import tempfile

        from repro.serve import create_server

        store_dir = tempfile.mkdtemp(prefix="eco-chip-serve-")
        server = create_server(port=0, store_dir=store_dir, workers=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base_url = "http://{}:{}".format(*server.server_address[:2])
        print(f"started in-process server on {base_url} (jobs in {store_dir})")

    client = ServeClient(base_url)
    print(f"health: {client.health()['status']}")

    job = client.submit(SPEC)
    print(f"submitted job {job['id']}: {job['scenarios']} scenarios")
    job = client.wait(job["id"])
    print(f"job {job['id']} {job['state']} in {job['elapsed_s']:.3f}s")

    records = list(client.results(job["id"]))
    best = min(records, key=lambda r: r["total_carbon_g"])
    print(
        f"{len(records)} result rows; best {best['packaging']} "
        f"@ {best['nodes']} -> {best['total_carbon_g'] / 1000:.2f} kg CO2"
    )

    front = client.pareto(job["id"], ("total_carbon_g", "silicon_area_mm2"))
    print(f"pareto front (carbon vs area): {len(front)} points")

    # Identical resubmission: re-evaluated on the server's warm templates.
    again = client.wait(client.submit(SPEC)["id"])
    print(f"resubmission {again['id']}: {again['state']} in {again['elapsed_s']:.3f}s")

    metrics = client.metrics()
    # Only a server evaluating in-process (jobs=1) shares one template cache.
    templates = metrics.get("template_cache", {})
    print(
        "metrics: {d} done, {c} scenarios evaluated, "
        "{h} template-cache hits, {m} templates compiled".format(
            d=metrics["jobs"]["done"],
            c=metrics["counters"].get("scenarios_evaluated", 0),
            h=templates.get("template_hits", 0),
            m=templates.get("compiles", 0),
        )
    )

    if server is not None:
        server.close(drain=True, timeout=30)
        print("server drained and shut down")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
