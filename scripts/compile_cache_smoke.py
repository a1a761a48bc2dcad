#!/usr/bin/env python3
"""CI smoke test for ``--compile-cache``: two real sweeps, one warm directory.

Runs ``eco-chip sweep`` twice against the same temporary compile-cache
directory and asserts:

1. the first run populates the directory (template + floorplan entries);
2. the second run's output is **byte-identical** to the first;
3. a fresh in-process :class:`repro.fastpath.BatchEstimator` mounted on the
   warm directory compiles **nothing** (``compiles == 0`` — every template
   and floorplan loads from disk) while reproducing the swept records
   bit-for-bit;
4. the ``ECO_CHIP_COMPILE_CACHE`` environment default behaves like the
   explicit flag.

Run with::

    python scripts/compile_cache_smoke.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PRESET = "ga102-quick"
TIMEOUT_S = 120


def sweep_command() -> list:
    eco_chip = shutil.which("eco-chip")
    if eco_chip is not None:
        return [eco_chip]
    return [sys.executable, "-m", "repro.cli"]


def run_sweep(out: Path, extra: list, env: dict = None) -> None:
    command = sweep_command() + [
        "sweep",
        "--preset", PRESET,
        "--out", str(out),
        "--quiet",
    ] + extra
    result = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=env,
    )
    assert result.returncode == 0, (
        f"sweep exited {result.returncode}:\n{result.stderr}"
    )


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="eco-chip-compile-cache-smoke-"))
    cache_dir = work / "compile-cache"

    # First run: cold cache, must populate the directory.
    run_sweep(work / "first.jsonl", ["--compile-cache", str(cache_dir)])
    entries = list(cache_dir.glob("*/*.pkl"))
    assert entries, f"first sweep left no cache entries in {cache_dir}"
    leftovers = [p for p in cache_dir.rglob("*.tmp-*")]
    assert not leftovers, f"temporary files survived the first run: {leftovers}"
    print(f"cold run OK: {len(entries)} cache entries under {cache_dir}")

    # Second run: warm cache, byte-identical output.
    run_sweep(work / "second.jsonl", ["--compile-cache", str(cache_dir)])
    first = (work / "first.jsonl").read_bytes()
    assert (work / "second.jsonl").read_bytes() == first, (
        "warm-cache sweep rows differ from the cold run"
    )
    print(f"warm run OK: byte-identical output ({len(first)} bytes)")

    # A fresh estimator on the warm directory must compile nothing: the
    # second run's compile counters are ~zero by construction.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.fastpath import BatchEstimator
    from repro.sweep.spec import SweepSpec

    scenarios = SweepSpec.preset(PRESET).expand()
    probe = BatchEstimator(persistent_cache=cache_dir)
    records = probe.evaluate(scenarios)
    stats = probe.cache_stats()
    assert stats["compiles"] == 0, (
        f"warm directory still compiled {stats['compiles']} templates: {stats}"
    )
    assert stats["disk_hits"] > 0, stats
    assert records == BatchEstimator().evaluate(scenarios), (
        "disk-cached records differ from a from-scratch compile"
    )
    print(
        f"probe OK: 0 compiles, {stats['disk_hits']} disk hits, "
        f"records bit-identical to a fresh compile"
    )

    # Environment-variable default: same behaviour as the explicit flag.
    env_cache = work / "env-cache"
    env = dict(os.environ, ECO_CHIP_COMPILE_CACHE=str(env_cache))
    run_sweep(work / "env.jsonl", [], env=env)
    assert list(env_cache.glob("*/*.pkl")), (
        f"ECO_CHIP_COMPILE_CACHE={env_cache} produced no cache entries"
    )
    assert (work / "env.jsonl").read_bytes() == first, (
        "env-var cached sweep rows differ"
    )
    print("env default OK: ECO_CHIP_COMPILE_CACHE populates and matches")

    shutil.rmtree(work, ignore_errors=True)
    print("compile-cache smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
