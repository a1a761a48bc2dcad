"""Integration: block-written stores are byte-identical to per-record stores.

The engine moves a template group as one column block from the kernel to
the store, which renders it in one pass.  The contract: for every preset,
``jobs`` in {1, 2}, fresh and resumed, the JSONL store holds exactly the
bytes of ``json.dumps(record, sort_keys=True) + "\\n"`` over the reference
oracle's records, and collected records equal the oracle's with the same
key order; a search run (rows stamped with ``search_round``) writes the
same bytes as appending its rows one by one.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro import Session
from repro.search import SearchSpec, run_search
from repro.search.space import GridSpace
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import PRESETS, SweepSpec

#: The presets plus a grid with large groups (lifetime x volume inside
#: each template, int and float volumes in one column).
SPECS = {name: SweepSpec.preset(name) for name in sorted(PRESETS)}
SPECS["grouped"] = SweepSpec.from_dict(
    {
        "testcases": ["ga102-3chiplet", "emr-2chiplet"],
        "nodes": [7, 14],
        "packaging": ["rdl_fanout", "passive_interposer"],
        "carbon_sources": ["coal", "renewable_mix"],
        "lifetimes": [1.5, 3, 5.25],
        "system_volumes": [1000, 250000.0, 10000000],
    }
)


def per_record_bytes(records):
    return b"".join(
        (json.dumps(dict(record), sort_keys=True) + "\n").encode("utf-8")
        for record in records
    )


_ORACLE = {}


def oracle(name):
    if name not in _ORACLE:
        _ORACLE[name] = reference_records(SPECS[name])
    return _ORACLE[name]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
class TestPresetStores:
    def test_fresh_store_and_records_match_the_oracle(self, tmp_path, name, jobs):
        expected = oracle(name)
        out = tmp_path / "out.jsonl"
        result = Session(jobs=jobs).sweep(SPECS[name], out=out)
        assert out.read_bytes() == per_record_bytes(expected)
        assert list(result.records) == expected
        assert repr(list(result.records)) == repr(expected)
        assert repr(result.best) == repr(min(expected, key=lambda r: r["total_carbon_g"]))

    def test_resumed_store_matches_the_oracle(self, tmp_path, name, jobs):
        expected_bytes = per_record_bytes(oracle(name))
        out = tmp_path / "out.jsonl"
        # A crash tore the store mid-line, two fifths of the way in.
        out.write_bytes(expected_bytes[: len(expected_bytes) * 2 // 5])
        Session(jobs=jobs).sweep(SPECS[name], out=out, resume=True, collect_records=False)
        assert out.read_bytes() == expected_bytes


def test_search_store_equals_per_record_appends(tmp_path):
    spec = SearchSpec(
        space={
            "name": "block-search",
            "testcases": ["emr-2chiplet"],
            "nodes": [7, 10, 14],
            "lifetimes": [2.0, 4.0, 6.0],
            "system_volumes": [1000, 50000.0],
        },
        budget=30,
        batch_size=9,
        seed=5,
    )
    out = tmp_path / "search.jsonl"
    run_search(spec, SweepEngine(), out=out)
    space = GridSpace(spec.space)
    rows = [json.loads(line) for line in out.read_bytes().splitlines()]
    assert 0 < len(rows) <= spec.budget
    expected = []
    # Each round evaluates its fresh candidates in grid order.
    for round_index, run in itertools.groupby(rows, key=lambda r: r["search_round"]):
        ids = [row["scenario"] for row in run]
        assert ids == sorted(ids)
        for record in reference_records([space.scenario(i) for i in ids]):
            expected.append({**record, "search_round": round_index})
    assert out.read_bytes() == per_record_bytes(expected)
