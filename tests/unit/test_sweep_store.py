"""Unit tests for repro.sweep.store (streaming result stores)."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.explorer import pareto_front
from repro.sweep.store import (
    ResultStore,
    StoreLockError,
    SweepRow,
    iter_records,
    load_records,
    load_rows,
    open_store,
    repair_torn_tail,
    rows_from_records,
)

#: The first 6 rows of a ``ga102-quick`` sweep, as the removed CSV store wrote them.
OLD_CSV_STORE = Path(__file__).resolve().parents[1] / "golden" / "ga102-quick-6.csv"

RECORDS = [
    {"scenario": 0, "base": "ga102-3chiplet", "nodes": [7.0, 14.0, 10.0],
     "packaging": "rdl_fanout", "total_carbon_g": 100.0, "silicon_area_mm2": 50.0},
    {"scenario": 1, "base": "ga102-3chiplet", "nodes": [7.0, 7.0, 7.0],
     "packaging": "silicon_bridge", "total_carbon_g": 90.0, "silicon_area_mm2": 60.0},
    {"scenario": 2, "base": "ga102-3chiplet", "nodes": [14.0, 14.0, 14.0],
     "packaging": "rdl_fanout", "total_carbon_g": 120.0, "silicon_area_mm2": 70.0},
]


class TestJsonlStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
            assert store.count == 3
        assert load_records(path) == RECORDS

    def test_each_append_is_flushed(self, tmp_path):
        # Crash-safety: the file must be complete and valid after every append,
        # without waiting for close().
        path = tmp_path / "out.jsonl"
        store = ResultStore(path)
        for done, record in enumerate(RECORDS, start=1):
            store.append(record)
            lines = [l for l in path.read_text().splitlines() if l.strip()]
            assert len(lines) == done
            json.loads(lines[-1])  # every line is already valid JSON
        store.close()

    def test_append_mode_extends_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            store.append(RECORDS[0])
        with ResultStore(path, append=True) as store:
            store.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_append_after_close_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "out.jsonl")
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            store.append(RECORDS[0])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.jsonl"
        with ResultStore(path) as store:
            store.append(RECORDS[0])
        assert path.exists()


class TestOpenStore:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.jsonl"), ResultStore)
        assert isinstance(open_store(tmp_path / "a.ndjson"), ResultStore)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown result-store format"):
            open_store(tmp_path / "a.parquet")

    def test_csv_is_refused_before_the_file_is_touched(self, tmp_path):
        # Read as JSONL, the CSV's last row would not decode and a repair
        # would truncate it as a torn tail.
        path = tmp_path / "old.csv"
        path.write_bytes(OLD_CSV_STORE.read_bytes())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        for touch in (open_store, lambda p: open_store(p, append=True), repair_torn_tail):
            with pytest.raises(ValueError, match="eco-chip export"):
                touch(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert os.listdir(tmp_path) == ["old.csv"]


class TestSweepRow:
    def test_objective_protocol_feeds_pareto_front(self):
        rows = rows_from_records(RECORDS)
        front = pareto_front(rows, ["total_carbon_g", "silicon_area_mm2"])
        # Record 2 is dominated by both others; 0 and 1 trade off.
        assert {row.record["scenario"] for row in front} == {0, 1}

    def test_unknown_objective_rejected(self):
        with pytest.raises(KeyError, match="no objective"):
            SweepRow(RECORDS[0]).objective("coolness")

    def test_label(self):
        assert SweepRow(RECORDS[0]).label == "(7,14,10)/rdl_fanout"

    def test_load_rows_from_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        rows = load_rows(path)
        assert [row.objective("total_carbon_g") for row in rows] == [100.0, 90.0, 120.0]

    def test_iter_records_streams(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        iterator = iter_records(path)
        assert next(iterator)["scenario"] == 0


class TestStoreLocking:
    def test_second_writer_rejected_while_lock_held(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            store.append(RECORDS[0])
            with pytest.raises(StoreLockError, match="locked"):
                ResultStore(path, append=True)
        # close() released the lock: a new writer succeeds.
        with ResultStore(path, append=True) as store:
            store.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_lock_file_removed_on_close(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path):
            assert (tmp_path / "out.jsonl.lock").exists()
        assert not (tmp_path / "out.jsonl.lock").exists()

    def test_stale_lock_from_dead_process_is_reclaimed(self, tmp_path):
        path = tmp_path / "out.jsonl"
        # Forge a lock naming a pid that cannot be alive.
        (tmp_path / "out.jsonl.lock").write_text("99999999\n")
        with ResultStore(path) as store:
            store.append(RECORDS[0])
        assert load_records(path) == RECORDS[:1]

    def test_exclusive_false_skips_locking(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as first:
            first.append(RECORDS[0])
            with ResultStore(path, append=True, exclusive=False) as second:
                second.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_appends_are_line_atomic_across_writers(self, tmp_path):
        # O_APPEND with one os.write per record: two fds interleaving must
        # never produce torn or interleaved lines.
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as first:
            with ResultStore(path, append=True, exclusive=False) as second:
                for record in RECORDS:
                    first.append(record)
                    second.append(record)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert [json.loads(line)["scenario"] for line in lines] == [0, 0, 1, 1, 2, 2]

    def test_open_store_passes_exclusive_through(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with open_store(path):
            with pytest.raises(StoreLockError):
                open_store(path, append=True)
            open_store(path, append=True, exclusive=False).close()

    def test_lock_held_by_live_process_reports_pid(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path):
            with pytest.raises(StoreLockError, match=str(os.getpid())):
                ResultStore(path, append=True)
