"""Shared constants and helpers of the chaos suite.

A plain module (not a ``conftest.py``: the benchmarks directory imports
its own ``conftest`` by bare name, which a second top-level conftest
module would shadow).  Baselines are memoised per test session.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

#: 32-scenario grid small enough to chaos-test quickly but wide enough to
#: span several worker chunks at jobs=2.
CHAOS_SPEC = {
    "name": "chaos-grid",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
    "carbon_sources": ["coal", "renewable_mix"],
}
CHAOS_COUNT = 32


def read_rows(path: Path) -> List[Dict]:
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line
    ]


@functools.lru_cache(maxsize=1)
def baseline_records() -> Tuple[Dict, ...]:
    """Fault-free records of the chaos grid, from the serial scalar oracle."""
    from repro.sweep.engine import reference_records
    from repro.sweep.spec import SweepSpec

    return tuple(reference_records(SweepSpec.from_dict(CHAOS_SPEC)))


@functools.lru_cache(maxsize=1)
def baseline_bytes() -> bytes:
    """Fault-free JSONL store bytes of the chaos grid (oracle records)."""
    from repro.sweep.store import ResultStore

    with tempfile.TemporaryDirectory(prefix="chaos-baseline-") as tmp:
        path = Path(tmp) / "baseline.jsonl"
        with ResultStore(path) as store:
            for record in baseline_records():
                store.append(dict(record))
        return path.read_bytes()
