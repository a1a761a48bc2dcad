"""CLI surface of ``eco-chip search``: exit codes, overrides, resume."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sweep.store import load_records

SPEC = {
    "name": "cli-search",
    "space": {
        "testcases": ["emr-2chiplet"],
        "nodes": [7, 10, 14],
        "lifetimes": [2.0, 4.0, 6.0],
    },
    "objectives": {"carbon": 1.0},
    "budget": 10,
    "batch_size": 4,
    "seed": 1,
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "search.json"
    path.write_text(json.dumps(SPEC))
    return path


class TestArgumentErrors:
    def test_no_source_prints_help(self, capsys):
        assert main(["search"]) == 1
        assert "eco-chip search" in capsys.readouterr().out

    def test_spec_and_space_preset_are_exclusive(self, spec_path, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--spec", str(spec_path), "--space-preset", "ga102-quick"])

    def test_bad_jobs(self, spec_path, capsys):
        assert main(["search", "--spec", str(spec_path), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["search", "--spec", str(tmp_path / "absent.json")]) == 2
        assert "invalid-spec" in capsys.readouterr().err

    def test_unknown_spec_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": SPEC["space"], "bugdet": 3}))
        assert main(["search", "--spec", str(path)]) == 2
        assert "unknown search-spec keys" in capsys.readouterr().err

    def test_unknown_testcase_fails_before_the_store_opens(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SPEC, "space": {"testcases": ["nope"]}}))
        out = tmp_path / "s.jsonl"
        assert main(["search", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: [invalid-spec] unknown testcase 'nope'; known testcases: "
        )
        assert not out.exists()

    def test_untabulated_node_fails_before_the_store_opens(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SPEC, "space": {**SPEC["space"], "nodes": [2, 7]}}))
        out = tmp_path / "s.jsonl"
        assert main(["search", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: [invalid-spec] node 2.0 is not in the technology table"
        )
        assert not out.exists()

    def test_unknown_strategy_flag(self, spec_path, capsys):
        assert (
            main(["search", "--spec", str(spec_path), "--strategy", "warp"]) == 2
        )
        assert "unknown search strategy" in capsys.readouterr().err

    def test_unknown_metric_in_objectives(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"space": SPEC["space"], "objectives": "coolness"})
        )
        assert main(["search", "--spec", str(path)]) == 2
        assert "unknown search metric" in capsys.readouterr().err

    def test_set_conflicting_axis(self, tmp_path, capsys):
        config = dict(SPEC, space=dict(SPEC["space"], wafer_diameter_mm=[300.0]))
        path = tmp_path / "wafer.json"
        path.write_text(json.dumps(config))
        assert (
            main(["search", "--spec", str(path), "--set", "wafer_diameter_mm=450"])
            == 2
        )
        assert "conflicts" in capsys.readouterr().err

    def test_set_unknown_axis(self, capsys):
        assert (
            main(["search", "--space-preset", "ga102-quick", "--set", "bogus=1"])
            == 2
        )
        assert "unknown axis" in capsys.readouterr().err

    def test_resume_with_different_out_path(self, spec_path, tmp_path, capsys):
        assert (
            main(
                [
                    "search",
                    "--spec",
                    str(spec_path),
                    "--resume",
                    str(tmp_path / "a.jsonl"),
                    "--out",
                    str(tmp_path / "b.jsonl"),
                ]
            )
            == 2
        )
        assert "--resume" in capsys.readouterr().err


class TestHappyPath:
    def test_spec_file_run_writes_the_store(self, spec_path, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main(["search", "--spec", str(spec_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "search 'cli-search'" in stdout
        assert "best: score" in stdout
        assert "trajectory:" in stdout
        assert "Pareto front" in stdout
        records = load_records(out)
        assert 0 < len(records) <= 10
        assert all("search_round" in record for record in records)

    def test_quiet_suppresses_the_trajectory(self, spec_path, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert (
            main(["search", "--spec", str(spec_path), "--out", str(out), "--quiet"])
            == 0
        )
        assert "trajectory:" not in capsys.readouterr().out

    def test_space_preset_with_set_and_flag_overrides(self, tmp_path, capsys):
        out = tmp_path / "preset.jsonl"
        assert (
            main(
                [
                    "search",
                    "--space-preset",
                    "ga102-quick",
                    "--set",
                    "wafer_diameter_mm=300,450",
                    "--strategy",
                    "random",
                    "--budget",
                    "6",
                    "--seed",
                    "5",
                    "--batch-size",
                    "3",
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "strategy=random seed=5" in stdout
        assert "of 32 grid points" in stdout  # 16-point preset x 2 diameters
        assert len(load_records(out)) == 6

    def test_resume_extends_the_same_file(self, spec_path, tmp_path, capsys):
        out = tmp_path / "resume.jsonl"
        assert main(["search", "--spec", str(spec_path), "--out", str(out), "--quiet"]) == 0
        before = out.read_bytes()
        assert main(["search", "--spec", str(spec_path), "--resume", str(out), "--quiet"]) == 0
        assert out.read_bytes() == before  # complete search resumes as a no-op
