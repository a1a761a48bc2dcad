"""Unit: the ``eco-chip`` command line pinned as a golden transcript.

Each case in :data:`CASES` is a list of invocations run in-process through
:func:`repro.cli.main`, in order, in one fresh temporary working directory
that :func:`populate` fills with small fixture files; every path is
relative.  An invocation is pinned in ``tests/golden/cli.json`` as its exit
code, stdout and stderr, so a change to any message, table or exit code
reads as a diff of that file.

The cases cover the valid runs of every front-end and at least one
invocation per error branch of the CLI: bad flag values, bad specs and
``--set`` axes, store and resume failures (exit 3), and the ``serve`` flag
checks (the server itself is never started).  The one guard no case
reaches is the sweep's "expands into zero scenarios" check: every spec
that validates has at least one scenario.  The unknown-axis message lists
the axis registry; ``tests/conftest.py`` resets it to the built-ins for
every test, so the case reads the same alone and in the full suite.

Regenerate the golden file after an intended change, and review its diff
like any other code change::

    PYTHONPATH=src python tests/unit/test_cli_golden.py --update

Without ``--update`` the script checks every case and exits non-zero on a
mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cli import COMPILE_CACHE_ENV, main

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "cli.json"

#: The first 6 rows of a ``ga102-quick`` store: a sweep cut short.
CUT_STORE = GOLDEN.with_name("ga102-quick-6.jsonl")

#: A device every write to fails with ENOSPC (store write failures).
DEV_FULL = "/dev/full"

_SEARCH_OBJECTIVES = {"carbon": 1.0}

#: Fixture files of every case's working directory (name -> JSON content).
SPEC_FILES = {
    "nodes.json": {"testcases": ["ga102-3chiplet"], "nodes": [2, 7]},
    "wafer.json": {"testcases": ["ga102-3chiplet"], "wafer_diameter_mm": [300]},
    "search-nodes.json": {
        "space": {"testcases": ["ga102-3chiplet"], "nodes": [2, 7]},
        "objectives": _SEARCH_OBJECTIVES,
        "budget": 4,
    },
    "search-wafer.json": {
        "space": {"testcases": ["ga102-3chiplet"], "wafer_diameter_mm": [300]},
        "objectives": _SEARCH_OBJECTIVES,
    },
    "search-named-space.json": {"space": "ga102-quick", "objectives": _SEARCH_OBJECTIVES},
}

#: A design directory with a node list (name -> JSON content or text).
DESIGN_FILES = {
    "architecture.json": {
        "name": "toy-soc",
        "packaging": {"type": "rdl_fanout", "layers": 5, "technology_nm": 65},
        "chiplets": [
            {"name": "digital", "type": "logic", "node": 7, "area_mm2": 120.0},
            {"name": "memory", "type": "memory", "node": 10, "area_mm2": 60.0},
            {"name": "analog", "type": "analog", "node": 14, "transistors": 5.0e8,
             "reused": True},
        ],
    },
    "operationalC.json": {"lifetime_years": 3, "duty_cycle": 0.1, "average_power_w": 15.0},
    "designC.json": {"system_volume": 50_000, "design_iterations": 50},
    "node_list.txt": "7\n10\n14\n",
}

SWEEP = ["sweep", "--preset", "ga102-quick"]
SEARCH = ["search", "--space-preset", "ga102-quick", "--budget", "4"]
SEARCH_GRID = ["search", "--space-preset", "ga102-grid", "--quiet"]
ESTIMATE = ["--testcase", "ga102-3chiplet"]
SWEEP_NODES = ["--design-dir", "design", "--sweep-nodes"]
TOP_PARETO = ["--top", "5", "--pareto", "total_carbon_g,cost_usd"]

#: Case name -> invocations (argv lists) run in one working directory.
CASES: Dict[str, List[List[str]]] = {
    # -- estimate (the paper tool's entry point) ----------------------------------
    "estimate/list-testcases": [["--list-testcases"]],
    "estimate/testcase": [ESTIMATE],
    "estimate/unknown-testcase": [["--testcase", "nope"]],
    "estimate/missing-design-dir": [["--design-dir", "missing"]],
    "estimate/output-under-file": [ESTIMATE + ["--output", "afile/report.json"]],
    "estimate/unknown-fab-source": [ESTIMATE + ["--fab-source", "nope"]],
    "estimate/nan-wafer-diameter": [ESTIMATE + ["--wafer-diameter-mm", "nan"]],
    "estimate/zero-wafer-diameter": [ESTIMATE + ["--wafer-diameter-mm", "0"]],
    "estimate/sweep-nodes": [
        SWEEP_NODES,
        SWEEP_NODES + ["--fab-source", "solar"],
        SWEEP_NODES + ["--no-design-cfp", "--no-wafer-waste"],
        SWEEP_NODES + ["--wafer-diameter-mm", "200"],
    ],
    # -- sweep --------------------------------------------------------------------
    "sweep/list-presets": [["sweep", "--list-presets"]],
    "sweep/top-pareto": [SWEEP + ["--top", "3", "--pareto", "total_carbon_g,cost_usd"]],
    "sweep/out-then-resume": [
        SWEEP + ["--out", "q.jsonl", "--quiet"],
        SWEEP + ["--resume", "q.jsonl"],
    ],
    "sweep/jobs-zero": [SWEEP + ["--jobs", "0"]],
    "sweep/top-negative": [SWEEP + ["--top", "-1"]],
    "sweep/pareto-unknown": [SWEEP + ["--pareto", "total_carbon_g,nope"]],
    "sweep/pareto-empty": [SWEEP + ["--pareto", ","]],
    "sweep/pareto-no-cost": [SWEEP + ["--no-cost", "--pareto", "cost_usd"]],
    "sweep/retries-negative": [SWEEP + ["--retries", "-1"]],
    "sweep/timeout-zero": [SWEEP + ["--scenario-timeout", "0"]],
    "sweep/timeout-nan": [SWEEP + ["--scenario-timeout", "nan", "--out", "x.jsonl", "--quiet"]],
    "sweep/unknown-preset": [["sweep", "--preset", "nope"]],
    "sweep/missing-spec": [["sweep", "--spec", "missing.json"]],
    "sweep/bad-nodes": [["sweep", "--spec", "nodes.json"]],
    "sweep/set-malformed": [SWEEP + ["--set", "nope"]],
    "sweep/set-unknown-axis": [SWEEP + ["--set", "nope=1"]],
    "sweep/set-bad-value": [SWEEP + ["--set", "wafer_diameter_mm=true"]],
    "sweep/set-repeated": [
        SWEEP + ["--set", "wafer_diameter_mm=300", "--set", "wafer_diameter_mm=450"]
    ],
    "sweep/set-empty": [SWEEP + ["--set", "wafer_diameter_mm="]],
    "sweep/set-conflict": [["sweep", "--spec", "wafer.json", "--set", "wafer_diameter_mm=450"]],
    "sweep/resume-out-conflict": [SWEEP + ["--resume", "a.jsonl", "--out", "b.jsonl"]],
    "sweep/resume-directory": [SWEEP + ["--resume", "dir.jsonl"]],
    "sweep/out-unknown-format": [SWEEP + ["--out", "x.txt"]],
    "sweep/out-under-file": [SWEEP + ["--out", "afile/x.jsonl"]],
    "sweep/out-locked": [SWEEP + ["--out", "locked.jsonl"]],
    "sweep/out-device-full": [SWEEP + ["--out", "full.jsonl", "--quiet"]],
    "sweep/compile-cache-file": [SWEEP + ["--compile-cache", "afile", "--quiet"]],
    "sweep/pareto-missing-column": [
        SWEEP + ["--resume", "old.jsonl", "--pareto", "total_carbon_g,power_w", "--quiet"]
    ],
    "sweep/resume-cost-mismatch": [
        SWEEP + ["--no-cost", "--out", "nc.jsonl", "--quiet"],
        SWEEP
        + [
            "--set", "wafer_diameter_mm=300,450", "--resume", "nc.jsonl",
            "--pareto", "total_carbon_g,cost_usd", "--quiet",
        ],
    ],
    "sweep/resume-top-pareto": [
        SWEEP + TOP_PARETO,
        SWEEP + ["--resume", "cut.jsonl"] + TOP_PARETO,
    ],
    # -- search -------------------------------------------------------------------
    "search/seeded": [["search", "--space-preset", "ga102-quick", "--budget", "6", "--seed", "7"]],
    "search/pareto-refine": [
        [
            "search", "--space-preset", "ga102-quick", "--set", "wafer_diameter_mm=300,450",
            "--strategy", "pareto_refine", "--budget", "12", "--seed", "7", "--out", "s.jsonl",
        ]
    ],
    "search/jobs-zero": [SEARCH + ["--jobs", "0"]],
    "search/unknown-preset": [["search", "--space-preset", "nope"]],
    "search/bad-nodes": [["search", "--spec", "search-nodes.json"]],
    "search/unknown-strategy": [SEARCH + ["--strategy", "nope"]],
    "search/set-needs-mapping": [
        ["search", "--spec", "search-named-space.json", "--set", "wafer_diameter_mm=300"]
    ],
    "search/set-conflict": [
        ["search", "--spec", "search-wafer.json", "--set", "wafer_diameter_mm=450"]
    ],
    "search/resume-out-conflict": [SEARCH + ["--resume", "a.jsonl", "--out", "b.jsonl"]],
    "search/resume-garbage": [SEARCH + ["--resume", "garbage.jsonl"]],
    "search/resume-directory": [SEARCH + ["--resume", "dir.jsonl"]],
    "search/out-under-file": [SEARCH + ["--out", "afile/x.jsonl"]],
    "search/out-locked": [SEARCH + ["--out", "locked.jsonl"]],
    "search/out-device-full": [SEARCH + ["--out", "full.jsonl", "--quiet"]],
    "search/compile-cache-file": [SEARCH + ["--compile-cache", "afile", "--quiet"]],
    "search/resume-cost-mismatch": [
        SEARCH_GRID + ["--budget", "8", "--no-cost", "--out", "s.jsonl"],
        SEARCH_GRID + ["--budget", "16", "--resume", "s.jsonl"],
    ],
    # -- serve (flag checks only; no server starts) ---------------------------------
    "serve/workers-zero": [["serve", "--workers", "0"]],
    "serve/queue-size-zero": [["serve", "--queue-size", "0"]],
    "serve/jobs-zero": [["serve", "--jobs", "0"]],
    "serve/quota-zero": [["serve", "--quota", "0"]],
    "serve/grace-negative": [["serve", "--grace", "-1"]],
    "serve/grace-nan": [["serve", "--grace", "nan"]],
    "serve/port-out-of-range": [["serve", "--port", "70000"]],
    "serve/store-dir-is-file": [["serve", "--store-dir", "afile"]],
}


def populate(directory: Path) -> None:
    """Write the fixture files every case's working directory starts with."""
    for name, content in SPEC_FILES.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")
    (directory / "afile").write_text("not a directory\n", encoding="utf-8")
    (directory / "dir.jsonl").mkdir()
    # A stored row (of a store another version wrote) lacking power_w.
    (directory / "old.jsonl").write_text(
        '{"cost_usd": 1.0, "scenario": 0, "total_carbon_g": 1e12}\n', encoding="utf-8"
    )
    # A corrupt line before an intact one (not a torn tail to repair).
    (directory / "garbage.jsonl").write_text('garbage\n{"scenario": 1}\n', encoding="utf-8")
    # pid 1 always exists, so the store lock reads as held by a live writer.
    (directory / "locked.jsonl.lock").write_text("1\n", encoding="utf-8")
    if os.path.exists(DEV_FULL):
        (directory / "full.jsonl").symlink_to(DEV_FULL)
    (directory / "cut.jsonl").write_bytes(CUT_STORE.read_bytes())
    (directory / "design").mkdir()
    for name, content in DESIGN_FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / "design" / name).write_text(text, encoding="utf-8")


def invoke(argv: List[str]) -> dict:
    """Run ``main(argv)`` and capture its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }


def run_case(name: str) -> List[dict]:
    """The transcript of one case, run in a fresh populated directory."""
    previous = os.getcwd()
    cache_env = os.environ.pop(COMPILE_CACHE_ENV, None)
    with tempfile.TemporaryDirectory() as scratch:
        try:
            os.chdir(scratch)
            populate(Path(scratch))
            return [invoke(argv) for argv in CASES[name]]
        finally:
            os.chdir(previous)
            if cache_env is not None:
                os.environ[COMPILE_CACHE_ENV] = cache_env


def needs_dev_full(name: str) -> bool:
    return any("full.jsonl" in argv for argv in CASES[name])


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_the_golden_file(name):
    if needs_dev_full(name) and not os.path.exists(DEV_FULL):
        pytest.skip(f"{DEV_FULL} is not available")
    assert run_case(name) == load_golden()[name]


def test_a_resumed_sweep_prints_the_uninterrupted_tables():
    # The resumed run prints a "resuming" line and its own scenario count;
    # the best record, the top-N table and the Pareto front cover the
    # stored rows too, so they read as the uninterrupted run's.
    fresh, resumed = load_golden()["sweep/resume-top-pareto"]
    assert resumed["stdout"].startswith("resuming cut.jsonl: 6 scenarios already evaluated\n")

    def tables(stdout: str) -> str:
        return stdout[stdout.index("best Ctot") :].replace("results written to cut.jsonl\n", "")

    assert tables(resumed["stdout"]) == tables(fresh["stdout"])


def main_script(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check (or with --update, rewrite) the golden CLI transcript."
    )
    parser.add_argument(
        "--update", action="store_true", help=f"rewrite {GOLDEN.name} from the CLI"
    )
    args = parser.parse_args(argv)
    snapshot = {name: run_case(name) for name in sorted(CASES)}
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN} ({len(snapshot)} cases)")
        return 0
    golden = load_golden()
    stale = sorted(
        name for name in set(snapshot) | set(golden) if snapshot.get(name) != golden.get(name)
    )
    for name in stale:
        print(f"mismatch: {name}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main_script())
