"""Integration: every sweep preset's records pinned as golden numbers.

Parity suites compare the engine with the reference oracle, so a change
that moves every carbon number in both passes them.  This net pins the
numbers themselves: for each preset, ``tests/golden/presets.json`` holds
the row count, the sha256 of the canonical JSONL of
:func:`repro.sweep.engine.reference_records` (one
``json.dumps(record, sort_keys=True)`` line per record) and, for
``ga102-quick``, the records verbatim so a change reads as a diff.  Both
the oracle and a ``Session.sweep(out=...)`` store at ``jobs=1`` must match
the golden file exactly.

Regenerate the golden file after an intended model change, and review its
diff like any other code change::

    PYTHONPATH=src python tests/integration/test_golden_presets.py --update

Without ``--update`` the script checks the presets and exits non-zero on a
mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import Session
from repro.sweep.engine import reference_records
from repro.sweep.spec import PRESETS, SweepSpec

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "presets.json"

#: The preset whose records the golden file also holds verbatim.
VERBATIM_PRESET = "ga102-quick"


def canonical_jsonl(records) -> bytes:
    """The store's JSONL rendering of ``records``."""
    return b"".join(
        (json.dumps(record, sort_keys=True) + "\n").encode("utf-8") for record in records
    )


def golden_entry(name: str, records) -> dict:
    """The golden-file entry of one preset's records."""
    entry = {
        "rows": len(records),
        "sha256": hashlib.sha256(canonical_jsonl(records)).hexdigest(),
    }
    if name == VERBATIM_PRESET:
        entry["records"] = records
    return entry


def oracle_snapshot() -> dict:
    """Golden entries of every preset, from the reference oracle."""
    return {
        name: golden_entry(name, reference_records(SweepSpec.preset(name)))
        for name in sorted(PRESETS)
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_preset_is_pinned():
    assert sorted(load_golden()) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestGoldenPresets:
    def test_oracle_matches_the_golden_file(self, name):
        expected = load_golden()[name]
        actual = golden_entry(name, reference_records(SweepSpec.preset(name)))
        if name == VERBATIM_PRESET:
            # Byte comparison: ``==`` on records would accept 1 == 1.0.
            assert canonical_jsonl(actual.pop("records")) == canonical_jsonl(
                expected.pop("records")
            )
        assert actual == expected

    def test_jobs1_store_matches_the_golden_file(self, tmp_path, name):
        expected = load_golden()[name]
        out = tmp_path / "out.jsonl"
        Session(jobs=1).sweep(SweepSpec.preset(name), out=out, collect_records=False)
        data = out.read_bytes()
        assert data.count(b"\n") == expected["rows"]
        assert hashlib.sha256(data).hexdigest() == expected["sha256"]
        if name == VERBATIM_PRESET:
            assert data == canonical_jsonl(expected["records"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check (or with --update, rewrite) the golden preset records."
    )
    parser.add_argument(
        "--update", action="store_true", help=f"rewrite {GOLDEN.name} from the oracle"
    )
    args = parser.parse_args(argv)
    snapshot = oracle_snapshot()
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN} ({len(snapshot)} presets)")
        return 0
    golden = load_golden()
    stale = sorted(
        name
        for name in set(snapshot) | set(golden)
        if json.dumps(snapshot.get(name), sort_keys=True)
        != json.dumps(golden.get(name), sort_keys=True)
    )
    for name in stale:
        print(f"mismatch: {name}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
