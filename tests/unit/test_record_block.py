"""Unit tests for column blocks (repro.sweep.block) and block appends."""

from __future__ import annotations

import json
import os

import pytest

from repro.fastpath import BatchEstimator
from repro.sweep.block import RecordBlock
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import SweepSpec, TemplateGroup
from repro.sweep.store import (
    ResultStore,
    load_records,
    open_store,
)

#: 16 templates x 8 scenarios; int and float volumes share one column.
GROUPED = SweepSpec.from_dict(
    {
        "testcases": ["ga102-3chiplet"],
        "nodes": [7, 14],
        "packaging": ["rdl_fanout", "3d"],
        "carbon_sources": ["coal", "wind"],
        "lifetimes": [2, 5.5],
        "system_volumes": [1000, 100000.0],
    }
)


def per_record_bytes(records):
    return b"".join(
        (json.dumps(dict(record), sort_keys=True) + "\n").encode("utf-8")
        for record in records
    )


def sample_block():
    return RecordBlock(
        {"scenario": None, "nodes": [7.0, 10.0], "total_carbon_g": None, "base": "ga102"},
        ("scenario", "total_carbon_g"),
        [(3, 1.5), (4, 0.25), (5, 1.5)],
    )


class TestRecordBlock:
    def test_records_keep_key_order_and_values(self):
        records = sample_block().records()
        assert records == [
            {"scenario": 3, "nodes": [7.0, 10.0], "total_carbon_g": 1.5, "base": "ga102"},
            {"scenario": 4, "nodes": [7.0, 10.0], "total_carbon_g": 0.25, "base": "ga102"},
            {"scenario": 5, "nodes": [7.0, 10.0], "total_carbon_g": 1.5, "base": "ga102"},
        ]
        assert [list(r) for r in records] == [["scenario", "nodes", "total_carbon_g", "base"]] * 3

    def test_every_record_owns_its_list_constants(self):
        block = sample_block()
        first, second, _ = block.records()
        first["nodes"].append(99.0)
        assert second["nodes"] == [7.0, 10.0]
        assert block.shared["nodes"] == [7.0, 10.0]
        assert block.record(1)["nodes"] is not block.shared["nodes"]

    def test_list_keys_are_found_when_not_given(self):
        block = sample_block()
        assert block.lists == ("nodes",)
        assert RecordBlock(block.shared, ("scenario", "nodes"), [(1, [2])]).lists == ()

    def test_column_repeats_shared_values(self):
        block = sample_block()
        assert block.column("total_carbon_g") == [1.5, 0.25, 1.5]
        assert block.column("base") == ["ga102"] * 3

    def test_select_and_with_constants(self):
        block = sample_block()
        part = block.select(1, 3)
        assert part.records() == block.records()[1:]
        annotated = part.with_constants({"search_round": 2})
        assert list(annotated.shared)[-1] == "search_round"
        assert [r["search_round"] for r in annotated.records()] == [2, 2]
        assert "search_round" not in block.shared
        listed = part.with_constants({"tags": ["a"]})
        first, second = listed.records()
        assert first["tags"] == ["a"] and first["tags"] is not second["tags"]

    def test_from_records_round_trips(self):
        records = sample_block().records()
        assert RecordBlock.from_records(records).records() == records

    def test_from_records_rejects_mixed_keys(self):
        with pytest.raises(ValueError, match="share their keys"):
            RecordBlock.from_records([{"a": 1}, {"b": 2}])


class TestKernelBlocks:
    def test_block_records_equal_the_oracle(self):
        scenarios = GROUPED.expand()
        estimator = BatchEstimator()
        template = estimator.compile_for(scenarios[0])
        members = [s for s in scenarios if estimator.compile_for(s) is template]
        block = estimator.evaluate_block(template, TemplateGroup.of(members))
        expected = reference_records(members)
        assert block.lists == ("nodes",)
        assert tuple(block.shared) == tuple(expected[0])
        assert block.records() == expected
        assert repr(block.records()) == repr(expected)

    def test_equal_packaging_dicts_render_per_row(self):
        # Hand-built scenarios: equal packaging dicts that are distinct
        # objects still form one template group, rendered row by row.
        from repro.sweep.spec import Scenario

        scenarios = [
            Scenario(
                index=i,
                base_kind="testcase",
                base_ref="ga102-3chiplet",
                packaging={"type": "rdl_fanout", "layers": 4},
                lifetime_years=float(i + 1),
            )
            for i in range(3)
        ]
        estimator = BatchEstimator()
        group = TemplateGroup.of(scenarios)
        block = estimator.evaluate_block(estimator.compile_for(group), group)
        assert block.column("packaging_params") == ['{"layers": 4}'] * 3
        assert block.records() == reference_records(scenarios)

    def test_group_and_scenario_wrappers_match_block(self):
        scenarios = GROUPED.expand()[:12]
        estimator = BatchEstimator()
        template = estimator.compile_for(scenarios[0])
        same = [s for s in scenarios if estimator.compile_for(s) is template]
        block = estimator.evaluate_block(template, TemplateGroup.of(same))
        assert estimator.evaluate_group(template, same) == block.records()
        assert estimator.evaluate_scenario(same[0]) == block.record(0)


class TestBlockAppends:
    def test_jsonl_block_is_one_write_of_per_record_bytes(self, tmp_path, monkeypatch):
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(len(data))
            return real_write(fd, data)

        block = sample_block()
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            monkeypatch.setattr(os, "write", counting_write)
            store.append_block(block)
            monkeypatch.undo()
            assert store.count == 3
        assert len(writes) == 1
        assert path.read_bytes() == per_record_bytes(block.records())

    def test_empty_block_writes_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            store.append_block(RecordBlock({"a": None}, ("a",), []))
            assert store.count == 0
        assert path.read_bytes() == b""

    def test_closed_store_rejects_blocks(self, tmp_path):
        store = ResultStore(tmp_path / "out.jsonl")
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.append_block(sample_block())

    @pytest.mark.parametrize(
        "column",
        [
            [0.0, -0.0, 0.0, -0.0],  # equal values, different JSON
            [1.5, float("nan"), 1.5, 1.5],
            [2.0, float("inf"), float("-inf"), 2.0],
            [100000, 100000.0, 100000, 100000.0],  # equal values, different JSON
            [True, 1, 1.0, False],
            ["a%s", "b%%", 'q"', "é"],
        ],
    )
    def test_values_equal_in_python_keep_their_own_json(self, tmp_path, column):
        block = RecordBlock({"x": None, "k": "%d"}, ("x",), [(value,) for value in column])
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            store.append_block(block)
        assert path.read_bytes() == per_record_bytes(block.records())

    def test_non_string_keys_fall_back_to_json_dumps(self, tmp_path):
        records = [{10: 1.0, 9: "x"}, {10: 2.0, 9: "y"}]
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            store.append_block(RecordBlock.from_records(records))
        assert path.read_bytes() == per_record_bytes(records)


class TestShortWrites:
    """``os.write`` may write fewer bytes than asked (disk full, file-size
    limit, a signal); the store must finish the line, not leave a partial
    one mid-file for the next append to weld onto."""

    @staticmethod
    def short_writes(monkeypatch, limit):
        real_write = os.write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:limit]))

        monkeypatch.setattr(os, "write", short_write)
        return calls

    def test_append_finishes_short_writes(self, tmp_path, monkeypatch):
        records = sample_block().records()
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            calls = self.short_writes(monkeypatch, 7)
            for record in records:
                store.append(record)
            monkeypatch.undo()
        assert len(calls) > len(records)
        assert path.read_bytes() == per_record_bytes(records)
        assert load_records(path) == records

    @pytest.mark.parametrize("suffix, limit", [(".jsonl", 5)])
    def test_append_block_finishes_short_writes(self, tmp_path, monkeypatch, suffix, limit):
        block = sample_block()
        records = block.records() + block.records()[:1]
        expected = tmp_path / f"expected{suffix}"
        with open_store(expected) as store:
            for record in records:
                store.append(record)
        path = tmp_path / f"out{suffix}"
        with open_store(path) as store:
            calls = self.short_writes(monkeypatch, limit)
            store.append_block(block)
            store.append_block(block.select(0, 1))
            monkeypatch.undo()
        assert len(calls) > 2
        assert path.read_bytes() == expected.read_bytes()
        assert load_records(path) == records

    def test_a_write_that_makes_no_progress_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            monkeypatch.setattr(os, "write", lambda fd, data: 0)
            with pytest.raises(OSError, match="no progress"):
                store.append_block(sample_block())
            monkeypatch.undo()


class TestEngineBlocks:
    def test_iter_blocks_yields_one_block_per_contiguous_group(self):
        scenarios = GROUPED.expand()
        blocks = list(SweepEngine().iter_blocks(scenarios))
        assert sum(block.size for block in blocks) == len(scenarios)
        assert [block.size for block in blocks] == [8] * 16
        assert [r for b in blocks for r in b.records()] == reference_records(scenarios)

    def test_interleaved_groups_split_at_gaps_and_keep_input_order(self, tmp_path):
        scenarios = GROUPED.expand()
        # Alternate scenarios from the two halves: no template group is
        # contiguous, so every group is split at its gaps.
        half = len(scenarios) // 2
        interleaved = [s for pair in zip(scenarios[:half], scenarios[half:]) for s in pair]
        path = tmp_path / "out.jsonl"
        with open_store(path) as store:
            summary = SweepEngine().run(interleaved, store=store)
        expected = reference_records(interleaved)
        assert path.read_bytes() == per_record_bytes(expected)
        assert summary.best == min(expected, key=lambda r: r["total_carbon_g"])
