"""Integration tests: parallel sweep execution and the ``eco-chip sweep`` CLI.

The acceptance contract of the sweep subsystem: a paper-scale (>= 500
scenario) grid evaluates through the CLI with worker processes, streams
JSONL incrementally, and the parallel path produces *bit-identical* totals
to the serial path.  (Wall-clock speedup depends on the host's core count
and is demonstrated by ``examples/sweep_ga102.py`` rather than asserted
here, where CI machines may expose a single core.)
"""

from __future__ import annotations

import csv
import json

import pytest

from repro import Session
from repro.cli import main
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import SweepSpec
from repro.sweep.store import load_records

GRID = SweepSpec.preset("ga102-grid")


class TestParallelEngine:
    def test_grid_is_paper_scale(self):
        assert GRID.count() >= 500

    def test_parallel_records_are_bit_identical_to_serial(self):
        scenarios = GRID.expand()[:96]  # enough to span several chunks
        serial = list(SweepEngine(jobs=1).iter_records(scenarios))
        parallel = list(SweepEngine(jobs=4).iter_records(scenarios))
        assert parallel == serial == reference_records(scenarios)
        assert sum(r["total_carbon_g"] for r in parallel) == sum(
            r["total_carbon_g"] for r in serial
        )

    def test_parallel_run_streams_to_store(self, tmp_path):
        from repro.sweep.store import ResultStore

        scenarios = GRID.expand()[:40]
        with ResultStore(tmp_path / "out.jsonl") as store:
            summary = SweepEngine(jobs=2).run(scenarios, store=store)
        assert summary.scenario_count == 40
        assert len(load_records(tmp_path / "out.jsonl")) == 40

    def test_explore_records_match_the_oracle(self):
        grid = SweepSpec(testcases=("ga102-3chiplet",), nodes=(7.0, 14.0))
        parallel = Session(jobs=2).explore("ga102-3chiplet", [7, 14])
        assert [p.record for p in parallel.points] == reference_records(grid)

    def test_explore_with_jobs_matches_serial(self):
        serial = Session().explore("ga102-3chiplet", [7, 14])
        parallel = Session(jobs=2).explore("ga102-3chiplet", [7, 14])
        assert [p.record for p in parallel.points] == [p.record for p in serial.points]
        assert [p.label for p in parallel.front] == [p.label for p in serial.front]


class TestSweepCli:
    def test_full_grid_parallel_jsonl(self, tmp_path, capsys):
        # The acceptance path: >= 500 scenarios, parallel workers, streamed JSONL.
        out = tmp_path / "results.jsonl"
        code = main(["sweep", "--preset", "ga102-grid", "--jobs", "2", "--out", str(out)])
        assert code == 0
        records = load_records(out)
        assert len(records) == GRID.count() >= 500
        stdout = capsys.readouterr().out
        assert "640 scenarios" in stdout
        assert "results written to" in stdout
        # CLI records match the serial reference oracle bit-for-bit.
        assert records == reference_records(GRID)

    def test_spec_file_csv_output(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"testcases": ["ga102-3chiplet"], "nodes": [7, 14], "packaging": ["rdl"]})
        )
        out = tmp_path / "results.jsonl"
        code = main(["sweep", "--spec", str(spec_path), "--out", str(out), "--quiet"])
        assert code == 0
        assert len(load_records(out)) == 8
        exported = tmp_path / "results.csv"
        assert main(["export", str(out), str(exported)]) == 0
        with open(exported, encoding="utf-8", newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 8

    def test_pareto_report(self, capsys):
        code = main(
            ["sweep", "--preset", "ga102-quick", "--pareto", "total_carbon_g,silicon_area_mm2"]
        )
        assert code == 0
        assert "Pareto front" in capsys.readouterr().out

    def test_list_presets(self, capsys):
        assert main(["sweep", "--list-presets"]) == 0
        assert "ga102-grid" in capsys.readouterr().out

    def test_no_spec_prints_help(self, capsys):
        assert main(["sweep"]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_preset_fails(self, capsys):
        assert main(["sweep", "--preset", "warp"]) == 2
        # KeyError-derived messages print without the repr quotes.
        assert capsys.readouterr().err.startswith(
            "error: [invalid-spec] unknown sweep preset 'warp'; known presets: "
        )

    def test_missing_spec_file_fails(self, tmp_path, capsys):
        assert main(["sweep", "--spec", str(tmp_path / "ghost.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_contents_fail(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"testcases": ["ga102-3chiplet"], "bogus": True}))
        assert main(["sweep", "--spec", str(spec_path)]) == 2

    def test_mismatched_node_config_fails_before_the_store_opens(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"testcases": ["ga102-3chiplet"], "node_configs": [[7, 7]]})
        )
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: [invalid-spec] node config (7.0, 7.0) has 2 entries"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes",
        [{"nodes": [2, 7]}, {"node_configs": [[7, 7, 70]]}],
        ids=["nodes", "node-configs"],
    )
    def test_untabulated_node_fails_before_the_store_opens(self, tmp_path, capsys, axes):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"testcases": ["ga102-3chiplet"], **axes}))
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [invalid-spec] node ")
        assert "is not in the technology table, which covers 3-65 nm" in err
        assert not out.exists()

    def test_unknown_pareto_objective_fails_before_the_store_opens(self, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        code = main(
            [
                "sweep", "--preset", "ga102-quick", "--out", str(out),
                "--pareto", "total_carbon_g,nope",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: [invalid-spec] --pareto: unknown objectives ['nope']; "
        )
        assert not out.exists()

    def test_pareto_on_cost_needs_the_cost_column(self, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        code = main(
            [
                "sweep", "--preset", "ga102-quick", "--out", str(out), "--no-cost",
                "--pareto", "total_carbon_g,cost_usd",
            ]
        )
        assert code == 2
        assert "unknown objectives ['cost_usd']" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_testcase_fails_before_the_store_opens(self, tmp_path, capsys):
        # No node axis: the name is still checked before anything runs.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"testcases": ["nope"]}))
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: [invalid-spec] unknown testcase 'nope'; known testcases: "
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes, extra_args, message",
        [
            ({"lifetimes": [float("nan")]}, [], "lifetimes must be positive and finite, got nan"),
            ({"system_volumes": [float("inf")]}, [], "system volumes must be positive and finite"),
            ({"wafer_diameter_mm": [float("nan")]}, [], "wafer diameter must be positive and finite"),
            ({}, ["--set", "defect_density_scale=nan"], "defect-density scale must be positive"),
            ({"lifetimes": [True]}, [], "lifetimes must be positive and finite, got True"),
            ({"system_volumes": [True]}, [], "system volumes must be positive and finite, got True"),
            ({"defect_density_scale": [True]}, [], "defect-density scale must be a number, got True"),
            ({}, ["--set", "wafer_diameter_mm=true"], "wafer diameter must be a number, got True"),
            ({}, ["--scenario-timeout", "nan"], "--scenario-timeout must be > 0, got nan"),
            ({}, ["--scenario-timeout", "inf"], "--scenario-timeout must be > 0, got inf"),
        ],
        ids=[
            "nan-lifetime", "inf-volume", "nan-wafer", "nan-defect-scale-set",
            "bool-lifetime", "bool-volume", "bool-defect-scale", "bool-wafer-set",
            "nan-timeout", "inf-timeout",
        ],
    )
    def test_non_finite_axis_values_fail(self, tmp_path, capsys, axes, extra_args, message):
        spec_path = tmp_path / "spec.json"
        # json writes NaN and Infinity, which the spec loader reads back.
        spec_path.write_text(json.dumps({"testcases": ["ga102-3chiplet"], **axes}))
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out), *extra_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [invalid-spec] ") and message in err
        assert not out.exists()

    def test_unknown_output_format_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"testcases": ["ga102-3chiplet"]}))
        code = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r.parquet")])
        assert code == 2
        assert "unknown result-store format" in capsys.readouterr().err

    def test_removed_backend_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--preset", "ga102-quick", "--backend", "batch"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_negative_top_fails(self, capsys):
        assert main(["sweep", "--preset", "ga102-quick", "--top", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: [invalid-spec] --top must be >= 0, got -1\n"
        )

    def test_invalid_jobs_fails(self, capsys):
        assert main(["sweep", "--preset", "ga102-quick", "--jobs", "0"]) == 2

    def test_unknown_pareto_objective_fails(self, capsys):
        code = main(["sweep", "--preset", "ga102-quick", "--pareto", "coolness"])
        assert code == 2
