"""Integration tests for the HTTP job server (in-process, ephemeral ports).

Covers the serve acceptance criteria: streamed results bit-identical to an
in-process :class:`repro.api.Session` sweep and to the scalar reference
oracle, warm-template
reuse visible in ``/v1/metrics`` on identical resubmission, quota 429s,
structured errors, concurrent submission and mid-run cancellation.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.resilience import ChaosPlan, Fault
from repro.serve.app import ServeServer, create_server
from repro.serve.jobs import JobManager
from repro.serve.quota import QuotaTracker
from repro.sweep.engine import reference_records
from repro.sweep.spec import SweepSpec
from repro.sweep.store import JsonlResultStore

SPEC = {
    "name": "serve-it",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
}
SPEC_COUNT = 16  # 2 nodes ^ 3 chiplets x 2 packagings

#: A 0.15 s delay before every scenario makes a run slow enough to cancel.
SLOW = ChaosPlan(
    faults=tuple(
        Fault(scenario=index, kind="delay", seconds=0.15)
        for index in range(SPEC_COUNT)
    )
)


# ---------------------------------------------------------------------------
# Tiny urllib client
# ---------------------------------------------------------------------------
def request(method, url, body=None, headers=None):
    """(status, parsed-JSON-or-bytes, headers) without raising on 4xx/5xx."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    for key, value in (headers or {}).items():
        req.add_header(key, value)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read()
            status, resp_headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        status, resp_headers = exc.code, dict(exc.headers)
    content_type = resp_headers.get("Content-Type", "")
    payload = json.loads(raw) if content_type.startswith("application/json") else raw
    return status, payload, resp_headers


def wait_for_state(base, job_id, states=("done", "failed", "cancelled"), timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job, _ = request("GET", f"{base}/v1/sweeps/{job_id}")
        assert status == 200
        if job["state"] in states:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not reach {states} within {timeout}s")


@pytest.fixture
def server(tmp_path):
    srv = create_server(port=0, store_dir=tmp_path / "jobs", workers=2)
    base = "http://{}:{}".format(*srv.server_address[:2])
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv, base
    finally:
        srv.close(drain=False, timeout=10)
        thread.join(10)


# ---------------------------------------------------------------------------
# Core flow
# ---------------------------------------------------------------------------
class TestServeFlow:
    def test_health_metrics_and_404(self, server):
        _, base = server
        assert request("GET", f"{base}/v1/healthz")[:2] == (200, {"status": "ok"})
        status, metrics, _ = request("GET", f"{base}/v1/metrics")
        assert status == 200
        assert metrics["queue_depth"] == 0
        assert metrics["jobs"]["submitted_total"] == 0
        status, payload, _ = request("GET", f"{base}/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not-found"
        status, payload, _ = request("GET", f"{base}/v1/sweeps/feedfacecafe")
        assert status == 404

    def test_submit_poll_stream_and_pareto(self, server, tmp_path):
        _, base = server
        status, job, _ = request("POST", f"{base}/v1/sweeps", SPEC)
        assert status == 202
        assert job["state"] in ("queued", "running")
        assert job["scenarios"] == SPEC_COUNT
        done = wait_for_state(base, job["id"])
        assert done["state"] == "done"
        assert done["done"] == SPEC_COUNT
        assert done["error"] is None

        # Streamed results are bit-identical to a direct Session sweep.
        status, body, headers = request("GET", f"{base}/v1/sweeps/{job['id']}/results")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers["X-Job-State"] == "done"
        direct = tmp_path / "direct.jsonl"
        Session().sweep(SPEC, out=direct, collect_records=False)
        assert body == direct.read_bytes()

        status, pareto, _ = request(
            "GET",
            f"{base}/v1/sweeps/{job['id']}/pareto?objectives=total_carbon_g,silicon_area_mm2",
        )
        assert status == 200
        assert pareto["objectives"] == ["total_carbon_g", "silicon_area_mm2"]
        assert 1 <= len(pareto["front"]) <= SPEC_COUNT
        # The front is made of real result rows.
        assert all("total_carbon_g" in row for row in pareto["front"])

        status, listing, _ = request("GET", f"{base}/v1/sweeps")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]

    def test_scalar_backend_parity(self, tmp_path):
        # Served results against the scalar reference oracle's store bytes.
        srv = create_server(port=0, store_dir=tmp_path / "jobs", workers=1)
        base = "http://{}:{}".format(*srv.server_address[:2])
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            _, job, _ = request("POST", f"{base}/v1/sweeps", SPEC)
            wait_for_state(base, job["id"])
            _, body, _ = request("GET", f"{base}/v1/sweeps/{job['id']}/results")
            direct = tmp_path / "direct.jsonl"
            with JsonlResultStore(direct) as store:
                for record in reference_records(SweepSpec.from_dict(SPEC)):
                    store.append(record)
            assert body == direct.read_bytes()
        finally:
            srv.close(drain=False, timeout=10)
            thread.join(10)

    def test_identical_resubmission_reuses_warm_templates(self, server):
        _, base = server
        _, first, _ = request("POST", f"{base}/v1/sweeps", SPEC)
        assert wait_for_state(base, first["id"])["state"] == "done"
        _, warm, _ = request("GET", f"{base}/v1/metrics")
        assert warm["template_cache"]["compiles"] > 0
        _, second, _ = request("POST", f"{base}/v1/sweeps", SPEC)
        second_done = wait_for_state(base, second["id"])
        assert second_done["state"] == "done"
        assert "cached" not in second_done

        _, metrics, _ = request("GET", f"{base}/v1/metrics")
        # Re-evaluated on the templates the first job compiled.
        assert metrics["template_cache"]["compiles"] == warm["template_cache"]["compiles"]
        assert (
            metrics["template_cache"]["template_hits"]
            > warm["template_cache"]["template_hits"]
        )
        assert metrics["counters"]["scenarios_evaluated"] == 2 * SPEC_COUNT
        assert metrics["jobs"]["done"] == 2
        # The re-evaluated store is bit-identical to the first one.
        _, body1, _ = request("GET", f"{base}/v1/sweeps/{first['id']}/results")
        _, body2, _ = request("GET", f"{base}/v1/sweeps/{second['id']}/results")
        assert body1 == body2

    def test_concurrent_submissions_all_complete(self, server):
        _, base = server
        specs = [
            {**SPEC, "name": f"concurrent-{i}", "lifetimes": [float(i + 1)]}
            for i in range(5)
        ]
        results = [None] * len(specs)

        def submit(i):
            results[i] = request("POST", f"{base}/v1/sweeps", specs[i])

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(specs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = []
        for status, job, _ in results:
            assert status == 202
            ids.append(job["id"])
        assert len(set(ids)) == len(specs)
        for job_id in ids:
            done = wait_for_state(base, job_id)
            assert done["state"] == "done"
            assert done["done"] == SPEC_COUNT
            _, body, _ = request("GET", f"{base}/v1/sweeps/{job_id}/results")
            lines = [l for l in body.decode().splitlines() if l]
            assert len(lines) == SPEC_COUNT
            assert sorted(json.loads(l)["scenario"] for l in lines) == list(
                range(SPEC_COUNT)
            )


# ---------------------------------------------------------------------------
# Errors, quota, cancellation
# ---------------------------------------------------------------------------
class TestServeErrors:
    def test_invalid_spec_is_400_with_structured_error(self, server):
        _, base = server
        status, payload, _ = request(
            "POST", f"{base}/v1/sweeps", {"testcases": ["ga102-3chiplet"], "bogus": [1]}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"
        assert "bogus" in payload["error"]["message"]
        status, payload, _ = request("POST", f"{base}/v1/sweeps")
        assert status == 400

    def test_keyerror_message_has_no_repr_quotes(self, server):
        _, base = server
        status, payload, _ = request(
            "POST", f"{base}/v1/sweeps", {"testcases": ["ga102-3chiplet"], "packaging": ["warp"]}
        )
        assert status == 400
        assert payload["error"]["message"].startswith("unknown packaging type 'warp'; ")

    def test_unknown_testcase_is_400(self, server):
        _, base = server
        status, payload, _ = request("POST", f"{base}/v1/sweeps", {"testcases": ["nope"]})
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"
        assert payload["error"]["message"].startswith("unknown testcase 'nope'; ")

    @pytest.mark.parametrize(
        "axes",
        [{"nodes": [2, 7]}, {"lifetimes": [True]}, {"system_volumes": [True]}],
        ids=["untabulated-node", "bool-lifetime", "bool-volume"],
    )
    def test_spec_errors_found_before_running_are_400(self, server, axes):
        _, base = server
        status, payload, _ = request(
            "POST", f"{base}/v1/sweeps", {"testcases": ["ga102-3chiplet"], **axes}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"

    def test_unknown_pareto_objective_is_400(self, server):
        _, base = server
        _, job, _ = request("POST", f"{base}/v1/sweeps", SPEC)
        wait_for_state(base, job["id"])
        status, payload, _ = request(
            "GET", f"{base}/v1/sweeps/{job['id']}/pareto?objectives=coolness"
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-spec"

    def test_unknown_pareto_objective_of_a_queued_job_is_400(self, tmp_path):
        # No store exists yet: the objective names are still checked, by
        # the rule of eco-chip sweep --pareto, not answered with an empty
        # front.
        srv = ServeServer(("127.0.0.1", 0), JobManager(tmp_path))  # no workers
        base = "http://{}:{}".format(*srv.server_address[:2])
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            _, job, _ = request("POST", f"{base}/v1/sweeps", SPEC)
            assert job["state"] == "queued"
            pareto = f"{base}/v1/sweeps/{job['id']}/pareto"
            status, payload, _ = request("GET", f"{pareto}?objectives=coolness")
            assert status == 400
            assert payload["error"]["code"] == "invalid-spec"
            assert "coolness" in payload["error"]["message"]
            status, payload, _ = request("GET", pareto)
            assert (status, payload["front"]) == (200, [])
        finally:
            srv.close(drain=False, timeout=10)
            thread.join(10)

    def test_cancel_terminal_job_is_409(self, server):
        _, base = server
        _, job, _ = request("POST", f"{base}/v1/sweeps", SPEC)
        wait_for_state(base, job["id"])
        status, payload, _ = request("DELETE", f"{base}/v1/sweeps/{job['id']}")
        assert status == 409
        assert payload["error"]["code"] == "conflict"

    def test_quota_exhaustion_is_429_per_client(self, tmp_path):
        srv = create_server(
            port=0,
            store_dir=tmp_path / "jobs",
            workers=1,
            quota=QuotaTracker(max_scenarios=SPEC_COUNT),
        )
        base = "http://{}:{}".format(*srv.server_address[:2])
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            big = {"testcases": ["ga102-3chiplet"], "nodes": [7, 10, 14]}  # 27 > 16
            status, payload, _ = request(
                "POST", f"{base}/v1/sweeps", big, headers={"X-Client-Id": "alice"}
            )
            assert status == 429
            assert payload["error"]["code"] == "quota-exceeded"
            # A different client has its own budget.
            status, job, _ = request(
                "POST", f"{base}/v1/sweeps", SPEC, headers={"X-Client-Id": "bob"}
            )
            assert status == 202
            wait_for_state(base, job["id"])
            _, metrics, _ = request("GET", f"{base}/v1/metrics")
            assert metrics["quota"]["rejections"] == 1
            assert metrics["quota"]["max_scenarios"] == SPEC_COUNT
        finally:
            srv.close(drain=False, timeout=10)
            thread.join(10)

    def test_cancel_mid_run_leaves_valid_prefix(self, tmp_path):
        # A delay before every scenario makes the run slow enough to
        # cancel deterministically mid-flight.
        srv = create_server(
            port=0, store_dir=tmp_path / "jobs", workers=1, chaos=SLOW
        )
        base = "http://{}:{}".format(*srv.server_address[:2])
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            _, job, _ = request("POST", f"{base}/v1/sweeps", SPEC)
            # Wait for the first record, then cancel mid-run.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, status_doc, _ = request("GET", f"{base}/v1/sweeps/{job['id']}")
                if status_doc["done"] >= 1:
                    break
                time.sleep(0.02)
            status, cancelled, _ = request("DELETE", f"{base}/v1/sweeps/{job['id']}")
            assert status == 200
            final = wait_for_state(base, job["id"], states=("cancelled",))
            assert 1 <= final["done"] < SPEC_COUNT
            # The interrupted store is a valid prefix: whole lines, unique ids.
            _, body, headers = request("GET", f"{base}/v1/sweeps/{job['id']}/results")
            assert headers["X-Job-State"] == "cancelled"
            lines = [l for l in body.decode().splitlines() if l]
            ids = [json.loads(l)["scenario"] for l in lines]
            assert len(ids) == len(set(ids))
            assert 1 <= len(ids) < SPEC_COUNT
        finally:
            srv.close(drain=False, timeout=10)
            thread.join(10)
