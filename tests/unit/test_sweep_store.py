"""Unit tests for repro.sweep.store (streaming result stores)."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.explorer import pareto_front
from repro.sweep.store import (
    CsvResultStore,
    JsonlResultStore,
    StoreLockError,
    SweepRow,
    iter_records,
    load_records,
    load_rows,
    open_store,
    rows_from_records,
)

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
        with JsonlResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
            assert store.count == 3
        assert load_records(path) == RECORDS

    def test_each_append_is_flushed(self, tmp_path):
        # Crash-safety: the file must be complete and valid after every append,
        # without waiting for close().
        path = tmp_path / "out.jsonl"
        store = JsonlResultStore(path)
        for done, record in enumerate(RECORDS, start=1):
            store.append(record)
            lines = [l for l in path.read_text().splitlines() if l.strip()]
            assert len(lines) == done
            json.loads(lines[-1])  # every line is already valid JSON
        store.close()

    def test_append_mode_extends_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
        with JsonlResultStore(path, append=True) as store:
            store.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_append_after_close_rejected(self, tmp_path):
        store = JsonlResultStore(tmp_path / "out.jsonl")
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            store.append(RECORDS[0])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
        assert path.exists()


class TestCsvStore:
    def test_round_trip_revives_numbers_and_lists(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        reloaded = load_records(path)
        assert len(reloaded) == 3
        assert reloaded[0]["total_carbon_g"] == 100.0
        assert reloaded[0]["nodes"] == [7.0, 14.0, 10.0]
        assert reloaded[1]["packaging"] == "silicon_bridge"

    def test_single_element_lists_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"scenario": 0, "nodes": [7.0], "total_carbon_g": 5.0})
        [record] = load_records(path)
        assert record["nodes"] == [7.0]

    def test_strings_containing_semicolons_stay_strings(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"scenario": 0, "base": "designs;v2", "total_carbon_g": 5.0})
        [record] = load_records(path)
        assert record["base"] == "designs;v2"

    def test_append_mode_respects_existing_header_order(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"a": 1, "b": 2})
        with CsvResultStore(path, append=True) as store:
            store.append({"b": 20, "a": 10})  # different key order
        first, second = load_records(path)
        assert first == {"a": 1, "b": 2}
        assert second == {"a": 10, "b": 20}

    def test_append_mode_drops_unknown_columns(self, tmp_path):
        # The on-disk header wins: unknown keys are dropped (never
        # misaligned), so older stores stay resumable by newer versions
        # that add record columns.
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            store.append({"a": 1})
        with CsvResultStore(path, append=True) as store:
            store.append({"a": 2, "surprise": 3})
        assert load_records(path) == [{"a": 1}, {"a": 2}]

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "out.csv"
        with CsvResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("scenario,")

    def test_row_cut_inside_its_last_field_is_torn(self, tmp_path):
        # The cut row keeps the header's field count, with cost_usd
        # shortened to 1073.612924222: only its missing terminator shows
        # that the crash tore it.
        from repro.api import Session
        from repro.sweep import SweepSpec
        from repro.sweep.store import completed_scenario_ids, repair_torn_tail

        spec = SweepSpec.preset("ga102-quick")
        full = tmp_path / "full.csv"
        Session().sweep(spec, out=full, collect_records=False)
        data = full.read_bytes()
        header_and_six_rows = data.split(b"\r\n", 7)[:7]
        cut_at = len(b"\r\n".join(header_and_six_rows)) - 4  # 4 bytes before row 6 ends
        assert data[:cut_at].endswith(b",1073.612924222")
        path = tmp_path / "cut.csv"
        path.write_bytes(data[:cut_at])
        assert completed_scenario_ids(path) == set(range(5))
        assert repair_torn_tail(path) is True
        assert load_records(path) == load_records(full)[:5]

        path.write_bytes(data[:cut_at])
        resumed = Session().sweep(spec, out=path, resume=True)
        assert resumed.summary.skipped_count == 5
        assert resumed.records[5]["cost_usd"] == 1073.6129242228844
        assert path.read_bytes() == data


class TestOpenStore:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlResultStore)
        assert isinstance(open_store(tmp_path / "a.ndjson"), JsonlResultStore)
        assert isinstance(open_store(tmp_path / "a.csv"), CsvResultStore)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.dat", fmt="csv"), CsvResultStore)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown result-store format"):
            open_store(tmp_path / "a.parquet")


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
        with JsonlResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        rows = load_rows(path)
        assert [row.objective("total_carbon_g") for row in rows] == [100.0, 90.0, 120.0]

    def test_iter_records_streams(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            for record in RECORDS:
                store.append(record)
        iterator = iter_records(path)
        assert next(iterator)["scenario"] == 0


class TestStoreLocking:
    def test_second_writer_rejected_while_lock_held(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
            with pytest.raises(StoreLockError, match="locked"):
                JsonlResultStore(path, append=True)
        # close() released the lock: a new writer succeeds.
        with JsonlResultStore(path, append=True) as store:
            store.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_lock_file_removed_on_close(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path):
            assert (tmp_path / "out.jsonl.lock").exists()
        assert not (tmp_path / "out.jsonl.lock").exists()

    def test_stale_lock_from_dead_process_is_reclaimed(self, tmp_path):
        path = tmp_path / "out.jsonl"
        # Forge a lock naming a pid that cannot be alive.
        (tmp_path / "out.jsonl.lock").write_text("99999999\n")
        with JsonlResultStore(path) as store:
            store.append(RECORDS[0])
        assert load_records(path) == RECORDS[:1]

    def test_exclusive_false_skips_locking(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as first:
            first.append(RECORDS[0])
            with JsonlResultStore(path, append=True, exclusive=False) as second:
                second.append(RECORDS[1])
        assert load_records(path) == RECORDS[:2]

    def test_appends_are_line_atomic_across_writers(self, tmp_path):
        # O_APPEND with one os.write per record: two fds interleaving must
        # never produce torn or interleaved lines.
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path) as first:
            with JsonlResultStore(path, append=True, exclusive=False) as second:
                for record in RECORDS:
                    first.append(record)
                    second.append(record)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert [json.loads(line)["scenario"] for line in lines] == [0, 0, 1, 1, 2, 2]

    def test_open_store_passes_exclusive_through(self, tmp_path):
        path = tmp_path / "out.csv"
        with open_store(path):
            with pytest.raises(StoreLockError):
                open_store(path, append=True)
            open_store(path, append=True, exclusive=False).close()

    def test_lock_held_by_live_process_reports_pid(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlResultStore(path):
            with pytest.raises(StoreLockError, match=str(os.getpid())):
                JsonlResultStore(path, append=True)


class TestCsvForwardCompatibleAppend:
    def test_appending_records_with_new_columns_keeps_old_schema(self, tmp_path):
        # A store written by an older version (fewer columns) must stay
        # resumable: new-version records append in the on-disk schema, with
        # unknown keys dropped rather than raising mid-resume.
        from repro.sweep.store import CsvResultStore, load_records

        path = tmp_path / "old.csv"
        with CsvResultStore(path) as store:
            store.append({"scenario": 0, "total_carbon_g": 1.5})
        with CsvResultStore(path, append=True) as store:
            store.append(
                {"scenario": 1, "total_carbon_g": 2.5, "packaging_params": "{}"}
            )
        records = load_records(path)
        assert records == [
            {"scenario": 0, "total_carbon_g": 1.5},
            {"scenario": 1, "total_carbon_g": 2.5},
        ]
