"""CLI error paths and listings of the axis surface (``--set``, ``--list-axes``)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.sweep.store import load_records


class TestListAxes:
    def test_list_axes_prints_the_catalogue(self, capsys):
        assert main(["--list-axes"]) == 0
        out = capsys.readouterr().out
        for name in ("wafer_diameter_mm", "defect_density_scale", "router_spec",
                     "duty_cycle"):
            assert name in out

    def test_list_packaging_and_axes_combine(self, capsys):
        assert main(["--list-packaging", "--list-axes"]) == 0
        out = capsys.readouterr().out
        assert "rdl_fanout" in out
        assert "wafer_diameter_mm" in out


class TestSetErrors:
    def test_unknown_axis(self, capsys):
        assert main(["sweep", "--preset", "ga102-quick", "--set", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown axis 'bogus'" in err
        assert "wafer_diameter_mm" in err  # catalogue listed

    def test_missing_equals_sign(self, capsys):
        assert main(["sweep", "--preset", "ga102-quick", "--set", "wafer_diameter_mm"]) == 2
        assert "AXIS=V1" in capsys.readouterr().err

    def test_empty_value_list(self, capsys):
        assert main(["sweep", "--preset", "ga102-quick", "--set", "duty_cycle="]) == 2
        assert "no values" in capsys.readouterr().err

    def test_value_rejected_by_axis_validator(self, capsys):
        assert main(["sweep", "--preset", "ga102-quick", "--set", "duty_cycle=1.5"]) == 2
        assert "duty_cycle" in capsys.readouterr().err

    def test_malformed_value(self, capsys):
        assert (
            main(["sweep", "--preset", "ga102-quick", "--set", "wafer_diameter_mm=abc"])
            == 2
        )
        assert "wafer_diameter_mm" in capsys.readouterr().err

    def test_keyerror_validators_keep_the_axis_prefix(self, capsys):
        code = main([
            "sweep", "--preset", "ga102-quick", "--set", "use_carbon_source=bogus",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--set use_carbon_source" in err
        assert "bogus" in err

    def test_repeated_set_flag(self, capsys):
        code = main([
            "sweep", "--preset", "ga102-quick",
            "--set", "duty_cycle=0.1", "--set", "duty_cycle=0.2",
        ])
        assert code == 2
        assert "more than once" in capsys.readouterr().err

    def test_duplicate_values_rejected(self, capsys):
        code = main([
            "sweep", "--preset", "ga102-quick", "--set", "duty_cycle=0.1,0.1",
        ])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_set_conflicting_with_spec_axis(self, capsys, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "testcases": ["emr-2chiplet"],
            "duty_cycle": [0.1, 0.2],
        }))
        code = main([
            "sweep", "--spec", str(spec), "--set", "duty_cycle=0.3",
        ])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err


class TestSetHappyPath:
    def test_set_expands_the_grid_and_records_overrides(self, capsys, tmp_path):
        out = tmp_path / "axis.jsonl"
        code = main([
            "sweep", "--preset", "ga102-quick",
            "--set", "wafer_diameter_mm=300,450", "--out", str(out), "--quiet",
        ])
        assert code == 0
        records = load_records(out)
        assert len(records) == 32  # ga102-quick (16) x 2 wafer diameters
        diameters = {
            json.loads(record["overrides"])["wafer_diameter_mm"]
            for record in records
        }
        assert diameters == {300, 450}

    def test_inline_mapping_value_survives_comma_splitting(self, capsys, tmp_path):
        out = tmp_path / "router.jsonl"
        code = main([
            "sweep", "--preset", "ga102-quick",
            "--set", "router_spec={ports: 6, flit_width_bits: 256}",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        records = load_records(out)
        assert len(records) == 16
        override = json.loads(records[0]["overrides"])["router_spec"]
        assert override == {"ports": 6, "flit_width_bits": 256}

    def test_spec_file_axis_key_roundtrip(self, capsys, tmp_path):
        spec = tmp_path / "grid.yaml"
        spec.write_text(
            "name: axis-yaml\n"
            "testcases: [emr-2chiplet]\n"
            "defect_density_scale: [1.0, 2.0]\n"
        )
        out = tmp_path / "r.jsonl"
        assert main(["sweep", "--spec", str(spec), "--out", str(out), "--quiet"]) == 0
        records = load_records(out)
        assert len(records) == 2
        totals = {record["total_carbon_g"] for record in records}
        assert len(totals) == 2  # the scale actually changed the yield
