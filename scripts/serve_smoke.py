#!/usr/bin/env python3
"""CI smoke test for ``eco-chip serve``: a real server process, over HTTP.

Starts ``eco-chip serve`` in the background on an ephemeral port, submits
a small GA102 sweep over HTTP, polls it to completion, and asserts:

1. the streamed JSONL rows are **bit-identical** to an in-process
   ``Session.sweep`` of the same spec;
2. an identical resubmission re-evaluates on the shared warm templates:
   in ``/v1/metrics`` the template ``compiles`` count does not rise,
   ``template_hits`` does, ``scenarios_evaluated`` is twice the job size,
   and its streamed rows equal the first job's byte for byte;
3. the server drains cleanly with exit code 0.

Run with::

    python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

SPEC = {
    "name": "serve-smoke",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
    "carbon_sources": ["coal", "renewable_mix"],
}
TIMEOUT_S = 120


def serve_command() -> list:
    eco_chip = shutil.which("eco-chip")
    if eco_chip is not None:
        return [eco_chip]
    return [sys.executable, "-m", "repro.cli"]


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def main() -> int:
    store_dir = Path(tempfile.mkdtemp(prefix="eco-chip-serve-smoke-"))
    proc = subprocess.Popen(
        serve_command()
        + ["serve", "--port", "0", "--workers", "2", "--store-dir", str(store_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        if "serving sweeps on http://" not in banner:
            print(f"server failed to start: {banner!r}", file=sys.stderr)
            print(proc.stderr.read(), file=sys.stderr)
            return 1
        base = banner.split()[3].rstrip("/")
        print(banner.strip())

        # Submit over HTTP and poll to completion.
        req = urllib.request.Request(
            f"{base}/v1/sweeps",
            data=json.dumps(SPEC).encode(),
            method="POST",
            headers={"Content-Type": "application/json", "X-Client-Id": "ci-smoke"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            job = json.loads(resp.read())
        print(f"submitted job {job['id']}: {job['scenarios']} scenarios")
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            job = get(f"{base}/v1/sweeps/{job['id']}")
            if job["state"] in ("done", "partial", "failed", "cancelled"):
                break
            time.sleep(0.1)
        assert job["state"] == "done", job
        print(f"job {job['id']} done: {job['done']}/{job['scenarios']} scenarios")

        # Streamed rows must be bit-identical to an in-process sweep.
        with urllib.request.urlopen(
            f"{base}/v1/sweeps/{job['id']}/results", timeout=30
        ) as resp:
            served = resp.read()
        from repro.api import Session

        direct_path = store_dir / "direct.jsonl"
        Session().sweep(SPEC, out=direct_path, collect_records=False)
        direct = direct_path.read_bytes()
        assert served == direct, (
            f"served rows differ from in-process sweep "
            f"({len(served)} vs {len(direct)} bytes)"
        )
        rows = served.decode().splitlines()
        print(f"bit-parity OK: {len(rows)} rows match in-process Session.sweep")

        # Identical resubmission: re-evaluated on the shared warm templates.
        warm = get(f"{base}/v1/metrics")["template_cache"]
        with urllib.request.urlopen(
            urllib.request.Request(
                f"{base}/v1/sweeps",
                data=json.dumps(SPEC).encode(),
                method="POST",
                headers={"Content-Type": "application/json", "X-Client-Id": "ci-smoke"},
            ),
            timeout=30,
        ) as resp:
            again = json.loads(resp.read())
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            again = get(f"{base}/v1/sweeps/{again['id']}")
            if again["state"] in ("done", "partial", "failed", "cancelled"):
                break
            time.sleep(0.1)
        assert again["state"] == "done", again
        metrics = get(f"{base}/v1/metrics")
        templates = metrics["template_cache"]
        assert templates["compiles"] == warm["compiles"], (warm, templates)
        assert templates["template_hits"] > warm["template_hits"], (warm, templates)
        evaluated = metrics["counters"].get("scenarios_evaluated", 0)
        assert evaluated == 2 * job["scenarios"], metrics
        with urllib.request.urlopen(
            f"{base}/v1/sweeps/{again['id']}/results", timeout=30
        ) as resp:
            assert resp.read() == served, "resubmission rows differ from the first job's"
        print(
            f"warm templates OK: resubmission compiled 0 templates "
            f"({templates['template_hits'] - warm['template_hits']} template hits), "
            f"{evaluated} scenarios evaluated, rows byte-identical"
        )
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(30)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait(30)
    assert code == 0, f"server exited with {code}: {proc.stderr.read()}"
    print("server shut down cleanly (exit 0)")

    # Resilient-sweep CLI smoke: the retry/timeout/supervision path with a
    # real worker pool must finish bit-identically to the plain run above.
    spec_path = store_dir / "smoke-spec.json"
    spec_path.write_text(json.dumps(SPEC))
    resilient_path = store_dir / "resilient.jsonl"
    sweep = subprocess.run(
        serve_command()
        + [
            "sweep",
            "--spec", str(spec_path),
            "--jobs", "2",
            "--retries", "1",
            "--scenario-timeout", "120",
            "--out", str(resilient_path),
            "--quiet",
        ],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert sweep.returncode == 0, sweep.stderr
    direct = (store_dir / "direct.jsonl").read_bytes()
    assert resilient_path.read_bytes() == direct, (
        "resilient sweep rows differ from the plain run"
    )
    print("resilience OK: --retries/--scenario-timeout sweep matches bit-for-bit")
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
