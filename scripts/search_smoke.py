#!/usr/bin/env python3
"""CI smoke test for ``eco-chip search``: a real CLI process, end to end.

Runs a goal-driven search over a GA102-derived candidate space (the
``ga102-grid`` preset widened by a lifetime axis, 1920 points) through the
installed ``eco-chip search`` CLI and asserts:

1. the search spends **at most 20% of the exhaustive grid** in
   evaluations (store row count);
2. its best weighted cost lands **within 1% of the exhaustive optimum**
   (computed in-process over the full grid by the sweep engine);
3. every stored row carries a ``search_round`` column;
4. re-running with ``--resume`` on the finished store is a byte-exact
   no-op — no budget is re-spent.

Run with::

    python scripts/search_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

EVALUATION_CEILING = 0.20
OPTIMUM_GAP = 0.01


def search_command() -> list:
    eco_chip = shutil.which("eco-chip")
    if eco_chip is not None:
        return [eco_chip, "search"]
    return [sys.executable, "-m", "repro.cli", "search"]


def main() -> int:
    from repro.search import SearchSpec
    from repro.sweep.engine import SweepEngine
    from repro.sweep.spec import SweepSpec, preset_dict
    from repro.sweep.store import load_records

    space = dict(
        preset_dict("ga102-grid"),
        name="search-smoke",
        lifetimes=[2.0, 4.0, 6.0],
    )
    config = {
        "name": "search-smoke",
        "space": space,
        "objectives": {"carbon": 1.0},
        "budget": 288,
        "batch_size": 48,
        "seed": 0,
        "strategy": "successive_halving",
    }

    work_dir = Path(tempfile.mkdtemp(prefix="eco-chip-search-smoke-"))
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(config))
    out = work_dir / "rows.jsonl"

    # The real CLI.
    command = search_command() + ["--spec", str(spec_path), "--out", str(out)]
    result = subprocess.run(command, capture_output=True, text=True, timeout=600)
    print(result.stdout)
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        print(f"FAIL: search CLI exited {result.returncode}", file=sys.stderr)
        return 1

    # Exhaustive optimum, in-process.
    spec = SearchSpec.from_dict(config)
    grid = SweepSpec.from_dict(space).expand()
    engine = SweepEngine()
    optimum = min(spec.weighted_cost(record) for record in engine.iter_records(grid))

    records = load_records(out)
    ceiling = EVALUATION_CEILING * len(grid)
    if len(records) > ceiling:
        print(
            f"FAIL: {len(records)} evaluations exceed the "
            f"{EVALUATION_CEILING:.0%} ceiling ({ceiling:.0f} of {len(grid)})",
            file=sys.stderr,
        )
        return 1
    if not all("search_round" in record for record in records):
        print("FAIL: store rows are missing the search_round column", file=sys.stderr)
        return 1
    best = min(spec.score(record) for record in records)
    gap = (best - optimum) / optimum
    if gap > OPTIMUM_GAP:
        print(
            f"FAIL: best weighted cost {best:.1f} is {gap:.2%} above the "
            f"exhaustive optimum {optimum:.1f} (bar: {OPTIMUM_GAP:.0%})",
            file=sys.stderr,
        )
        return 1
    print(
        f"quality: {len(records)} of {len(grid)} grid points evaluated "
        f"({len(records) / len(grid):.1%}), best within {gap:.3%} of the optimum"
    )

    # Resume on a finished store must be a byte-exact no-op.
    before = out.read_bytes()
    command = search_command() + [
        "--spec", str(spec_path), "--resume", str(out), "--quiet",
    ]
    result = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        print(f"FAIL: resume CLI exited {result.returncode}", file=sys.stderr)
        return 1
    if out.read_bytes() != before:
        print("FAIL: resuming a finished search modified the store", file=sys.stderr)
        return 1
    print("resume: finished store replayed as a byte-exact no-op")
    print("search smoke OK")
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
