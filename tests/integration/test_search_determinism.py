"""Integration: the search determinism and crash-resume guarantees.

The contract under test (ISSUE 10): a fixed ``SearchSpec`` seed yields
bit-identical candidate sequences and result stores for every jobs count
and multiprocessing start method, every stored row equals the scalar
reference oracle's record, and a search killed mid-round
resumes from its store without re-evaluating completed rounds — to a store
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.search import SearchSpec, run_search
from repro.search.space import GridSpace
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.store import load_records

SPEC = SearchSpec(
    space={
        "name": "determinism",
        "testcases": ["emr-2chiplet"],
        "nodes": [7, 10, 14],
        "lifetimes": [2.0, 4.0, 6.0],
        "wafer_diameter_mm": [300.0, 450.0],
    },  # 3^2 x 3 x 2 = 54 points
    budget=24,
    batch_size=8,
    seed=11,
)


def run_to_store(tmp_path: Path, tag: str, **engine_kwargs) -> bytes:
    out = tmp_path / f"{tag}.jsonl"
    run_search(SPEC, SweepEngine(**engine_kwargs), out=out)
    return out.read_bytes()


class TestBitIdenticalStores:
    def test_backends_and_jobs_counts_agree(self, tmp_path):
        reference = run_to_store(tmp_path, "jobs-1")
        assert run_to_store(tmp_path, "jobs-4", jobs=4) == reference
        # Every stored row is the scalar oracle's record plus its round stamp.
        space = GridSpace(SPEC.space)
        rows = load_records(tmp_path / "jobs-1.jsonl")
        assert len(rows) == SPEC.budget
        for row in rows:
            assert isinstance(row.pop("search_round"), int)
            assert [row] == reference_records([space.scenario(row["scenario"])])

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_fork_and_spawn_agree(self, tmp_path):
        fork = run_to_store(tmp_path, "fork", jobs=2, mp_context="fork")
        spawn = run_to_store(tmp_path, "spawn", jobs=2, mp_context="spawn")
        assert fork == spawn

    def test_strategies_are_individually_deterministic(self, tmp_path):
        for strategy in ("random", "successive_halving", "pareto_refine"):
            spec = SearchSpec(
                space=SPEC.space, budget=20, batch_size=8, seed=3, strategy=strategy
            )
            first = tmp_path / f"{strategy}-a.jsonl"
            second = tmp_path / f"{strategy}-b.jsonl"
            run_search(spec, SweepEngine(), out=first)
            run_search(spec, SweepEngine(), out=second)
            assert first.read_bytes() == second.read_bytes(), strategy


class TestKilledProcessResume:
    """A SIGKILL'd `eco-chip search` process resumes byte-identically."""

    SPEC_JSON = (
        '{"name": "kill", "space": {"testcases": ["ga102-3chiplet"], '
        '"nodes": [5, 7, 10, 14], "lifetimes": [2.0, 4.0, 6.0]}, '
        '"budget": 120, "batch_size": 16, "seed": 2}'
    )

    def cli(self, *args):
        return [sys.executable, "-m", "repro.cli", "search", *args]

    def env(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sigkill_mid_search_then_resume(self, tmp_path):
        spec_path = tmp_path / "kill.json"
        spec_path.write_text(self.SPEC_JSON)

        # Uninterrupted reference store, in-process.
        reference = tmp_path / "reference.jsonl"
        run_search(SearchSpec.from_file(spec_path), SweepEngine(), out=reference)

        # Start the CLI, SIGKILL it as soon as rows appear on disk.
        victim = tmp_path / "victim.jsonl"
        process = subprocess.Popen(
            self.cli("--spec", str(spec_path), "--out", str(victim), "--quiet"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self.env(),
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.exists() and victim.stat().st_size > 0:
                break
            if process.poll() is not None:
                break
            time.sleep(0.001)
        if process.poll() is None:
            process.kill()
        process.wait(timeout=60)

        # Resume through the CLI; completed rounds must not re-evaluate and
        # the final store must match the uninterrupted run byte for byte.
        result = subprocess.run(
            self.cli("--spec", str(spec_path), "--resume", str(victim), "--quiet"),
            capture_output=True,
            text=True,
            env=self.env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert victim.read_bytes() == reference.read_bytes()
        scenario_ids = [record["scenario"] for record in load_records(victim)]
        assert len(scenario_ids) == len(set(scenario_ids))
