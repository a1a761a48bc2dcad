"""Resume-after-restart tests: interrupted servers leave resumable state.

Two levels: an in-process ``JobManager`` torn down with ``drain=False``
and re-created over the same store directory, and a real ``eco-chip
serve`` subprocess SIGKILLed mid-sweep and restarted.  Both must finish
the interrupted job with no duplicate and no torn rows, byte-identical
to the scalar reference oracle's store.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.axes.registry import register_axis
from repro.serve.jobs import JobManager
from repro.sweep.engine import reference_records
from repro.sweep.spec import SweepSpec
from repro.sweep.store import JsonlResultStore

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

SLOW_SPEC = {
    "name": "restart-me",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
    "serve_restart_delay": [0.1],
}
SLOW_COUNT = 16  # one template per scenario: the delay axis applies to each


def _delay_system(system, value):
    time.sleep(float(value))
    return system


@pytest.fixture(autouse=True)
def delay_axis():
    """The test-only delay axis (every test starts from the built-in axes)."""
    register_axis(
        "serve_restart_delay",
        "system",
        apply=_delay_system,
        description="test-only axis: sleep per scenario to survive interruption",
    )


def wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def write_oracle_store(path):
    """The uninterrupted store the scalar reference oracle writes."""
    with JsonlResultStore(path) as store:
        for record in reference_records(SweepSpec.from_dict(SLOW_SPEC)):
            store.append(record)
    return path.read_bytes()


def read_store_ids(path):
    if not path.exists():
        return []
    return [
        json.loads(line)["scenario"]
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestManagerRestart:
    def test_drain_false_shutdown_then_recover_completes(self, tmp_path):
        store_dir = tmp_path / "jobs"
        manager = JobManager(store_dir, workers=1)
        manager.start()
        job = manager.submit(SLOW_SPEC)
        # Let it get genuinely mid-run before interrupting.
        assert wait_for(lambda: job.done >= 2)
        manager.shutdown(drain=False, timeout=30)
        assert job.state == "queued"  # interrupted, not failed
        partial = read_store_ids(job.store_path)
        assert 2 <= len(partial) < SLOW_COUNT
        meta = json.loads((store_dir / f"{job.id}.json").read_text())
        assert meta["state"] == "queued"

        # A fresh manager over the same directory adopts and finishes it.
        revived = JobManager(store_dir, workers=1)
        revived.start()
        try:
            adopted = revived.get(job.id)
            assert wait_for(lambda: adopted.state == "done")
            assert revived.metrics_snapshot()["counters"]["jobs_recovered"] == 1
        finally:
            revived.shutdown()

        ids = read_store_ids(job.store_path)
        assert len(ids) == len(set(ids)) == SLOW_COUNT  # no duplicates
        # Byte-identical to an uninterrupted sweep of the same spec.
        assert job.store_path.read_bytes() == write_oracle_store(
            tmp_path / "direct.jsonl"
        )


# ---------------------------------------------------------------------------
# Real-process kill/restart
# ---------------------------------------------------------------------------
# The server subprocess registers the delay axis before entering the CLI, so
# the submitted spec resolves; everything else is stock ``eco-chip serve``.
_SERVER_PROGRAM = """\
import sys, time
from repro.axes.registry import register_axis

def _delay(system, value):
    time.sleep(float(value))
    return system

register_axis("serve_restart_delay", "system", apply=_delay)
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _spawn_server(store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-c",
            _SERVER_PROGRAM,
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--store-dir",
            str(store_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()  # "serving sweeps on http://host:port ..."
    assert "serving sweeps on http://" in banner, (banner, proc.stderr.read())
    base = banner.split()[3]
    return proc, base.rstrip("/")


def _post_json(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def _get_json(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


class TestServerKillRestart:
    def test_sigkill_mid_sweep_then_restart_resumes(self, tmp_path):
        store_dir = tmp_path / "jobs"
        proc, base = _spawn_server(store_dir)
        try:
            job = _post_json(f"{base}/v1/sweeps", SLOW_SPEC)
            store_path = store_dir / f"{job['id']}.jsonl"
            # SIGKILL the server once the sweep is demonstrably mid-run.
            assert wait_for(lambda: len(read_store_ids(store_path)) >= 2)
        finally:
            proc.kill()
            proc.wait(30)
        partial = read_store_ids(store_path)
        assert 2 <= len(partial) < SLOW_COUNT

        # Restart over the same store directory: the job is adopted,
        # resumed from its store, and runs to completion.
        proc, base = _spawn_server(store_dir)
        try:
            assert wait_for(
                lambda: _get_json(f"{base}/v1/sweeps/{job['id']}")["state"] == "done"
            )
            final = _get_json(f"{base}/v1/sweeps/{job['id']}")
            assert final["done"] == SLOW_COUNT
            with urllib.request.urlopen(
                f"{base}/v1/sweeps/{job['id']}/results", timeout=30
            ) as resp:
                body = resp.read()
            metrics = _get_json(f"{base}/v1/metrics")
            assert metrics["counters"]["jobs_recovered"] == 1
        finally:
            proc.terminate()
            proc.wait(30)

        ids = [json.loads(line)["scenario"] for line in body.decode().splitlines() if line]
        assert len(ids) == len(set(ids)) == SLOW_COUNT  # no duplicate, no torn rows
        assert body == write_oracle_store(tmp_path / "direct.jsonl")
