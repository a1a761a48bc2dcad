"""Integration tests: ``eco-chip export`` turns a result store into CSV.

A result store is always JSONL; CSV is a one-shot export of it
(:func:`repro.sweep.store.export_csv`).  Every exported row must equal its
stored record with lists flattened to ``;``-joined text, the header must
keep a column only some rows carry, a torn last line is skipped as resume
skips it, and a failed export leaves no file behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import pytest

from repro import Session
from repro.cli import main
from repro.resilience import ChaosPlan, Fault, ResiliencePolicy, RetryPolicy
from repro.search import SearchSpec
from repro.sweep.spec import SweepSpec
from repro.sweep.store import export_csv, load_records

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def as_written(record, columns):
    """``record`` as ``csv.writer`` writes it under ``columns``: lists as
    ``;``-joined text (a trailing ``;`` marks one element), ``None`` and
    missing keys as empty fields."""
    values = []
    for column in columns:
        value = record.get(column)
        if isinstance(value, list):
            value = ";".join(map(str, value)) + (";" if len(value) == 1 else "")
        values.append(value)
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow(values)
    return next(csv.reader([buffer.getvalue()]))


def assert_exported(csv_path, records):
    rows = read_csv(csv_path)
    columns = sorted(set().union(*records))
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert list(row) == columns
        assert list(row.values()) == as_written(record, columns)


@pytest.mark.parametrize("preset", ["ga102-quick", "ga102-grid"])
def test_every_row_equals_its_flattened_record(tmp_path, preset):
    store = tmp_path / "store.jsonl"
    Session().sweep(preset=preset, out=store, collect_records=False)
    out = tmp_path / "store.csv"
    records = load_records(store)
    assert export_csv(store, out) == len(records)
    assert_exported(out, records)


def test_lists_nulls_and_missing_keys(tmp_path):
    store = tmp_path / "store.jsonl"
    records = [
        {"scenario": 0, "nodes": [7.0], "base": "designs;v2", "cost_usd": None},
        {"scenario": 1, "nodes": [7.0, 14.0], "extra": 3},
    ]
    store.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "store.csv"
    export_csv(store, out)
    assert out.read_bytes() == (
        b"base,cost_usd,extra,nodes,scenario\r\n"
        b"designs;v2,,,7.0;,0\r\n"
        b",,3,7.0;14.0,1\r\n"
    )


def test_fields_equal_the_removed_csv_stores(tmp_path):
    # The same six ga102-quick rows, exported and as the removed CSV store
    # wrote them: the columns are sorted now, the field texts unchanged.
    out = tmp_path / "cut.csv"
    export_csv(GOLDEN / "ga102-quick-6.jsonl", out)
    assert read_csv(out) == read_csv(GOLDEN / "ga102-quick-6.csv")


def test_the_error_column_survives_a_later_first_error_row(tmp_path):
    store = tmp_path / "resilient.jsonl"
    Session(
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1), on_error="record"),
        chaos=ChaosPlan(faults=(Fault(scenario=5, times=99),)),
    ).sweep(preset="ga102-quick", out=store, collect_records=False)
    records = load_records(store)
    assert [index for index, record in enumerate(records) if "error" in record] == [5]
    out = tmp_path / "resilient.csv"
    export_csv(store, out)
    assert_exported(out, records)
    rows = read_csv(out)
    assert rows[5]["error"] == records[5]["error"]
    assert rows[5]["total_carbon_g"] == ""
    assert {row["error"] for index, row in enumerate(rows) if index != 5} == {""}


def test_a_torn_last_line_is_skipped(tmp_path):
    store = tmp_path / "torn.jsonl"
    Session().sweep(preset="ga102-quick", out=store, collect_records=False)
    records = load_records(store)
    with open(store, "ab") as handle:
        handle.write(b'{"scenario": 16, "total_car')
    out = tmp_path / "torn.csv"
    assert main(["export", str(store), str(out)]) == 0
    assert_exported(out, records)


def test_mid_file_corruption_exits_2_and_leaves_no_file(tmp_path, capsys):
    store = tmp_path / "corrupt.jsonl"
    Session().sweep(preset="ga102-quick", out=store, collect_records=False)
    lines = store.read_bytes().splitlines(keepends=True)
    store.write_bytes(b"".join(lines[:3] + [b'{"scenario": 3, "tot\n'] + lines[4:]))
    out = tmp_path / "corrupt.csv"
    assert main(["export", str(store), str(out)]) == 2
    assert "error: [invalid-spec]" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["corrupt.jsonl"]


def test_a_line_that_is_not_an_object_exits_2(tmp_path, capsys):
    store = tmp_path / "list.jsonl"
    store.write_text('[1, 2]\n{"scenario": 0}\n', encoding="utf-8")
    out = tmp_path / "list.csv"
    assert main(["export", str(store), str(out)]) == 2
    assert "not a JSON object" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["list.jsonl"]


def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    store = tmp_path / "store.jsonl"
    Session().sweep(preset="ga102-quick", out=store, collect_records=False)
    out = tmp_path / "store.csv"
    out.write_text("an earlier export\n", encoding="utf-8")

    def fail(self, row):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(csv.DictWriter, "writerow", fail)
    assert main(["export", str(store), str(out)]) == 3
    assert out.read_text(encoding="utf-8") == "an earlier export\n"
    assert sorted(os.listdir(tmp_path)) == ["store.csv", "store.jsonl"]


def test_session_refuses_a_csv_store(tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="eco-chip export"):
        Session().sweep(preset="ga102-quick", out=out)
    assert os.listdir(tmp_path) == []


def test_session_search_refuses_a_csv_store(tmp_path):
    old = tmp_path / "old.csv"
    old.write_bytes((GOLDEN / "ga102-quick-6.csv").read_bytes())
    spec = SearchSpec.from_dict(
        {"space": SweepSpec.preset("ga102-quick"), "objectives": {"carbon": 1.0}, "budget": 4}
    )
    for resume in (False, True):
        with pytest.raises(ValueError, match="eco-chip export"):
            Session().search(spec, out=old, resume=resume)
    assert old.read_bytes() == (GOLDEN / "ga102-quick-6.csv").read_bytes()
    assert os.listdir(tmp_path) == ["old.csv"]
