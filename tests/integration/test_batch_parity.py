"""Bit-level parity of the sweep engine against the scalar reference oracle.

The acceptance bar of the compiled batch engine: for every shipped preset
grid (and the awkward corners — monolithic bases, disabled wafer waste,
packaging parameter overrides, process parallelism, resume), ``SweepEngine`` must produce
records that equal :func:`repro.sweep.engine.reference_records` — a serial
loop through the full ``EcoChip.estimate`` pipeline — under ``==`` (exact
bit-for-bit float equality, not tolerance-based closeness) *and* serialise
to the same JSON text, so an int-vs-float drift cannot hide behind ``==``.
"""

from __future__ import annotations

import itertools
import json
import sys

import pytest

from repro.api import Session
from repro.cli import main
from repro.core.estimator import EstimatorConfig
from repro.fastpath import BatchEstimator
from repro.sweep.engine import SweepEngine, reference_records
from repro.sweep.spec import PRESETS, Scenario, SweepSpec
from repro.sweep.store import (
    CsvResultStore,
    JsonlResultStore,
    completed_scenario_ids,
    load_records,
)
from repro.testcases import ga102


def _scalar_records(scenarios, config=None):
    return reference_records(scenarios, config=config)


def _batch_records(scenarios, config=None):
    return list(SweepEngine(jobs=1, config=config).iter_records(scenarios))


def _assert_identical(reference, records):
    """``==`` per record *and* identical store bytes (int vs float shows)."""
    assert reference == records
    assert [json.dumps(r, sort_keys=True) for r in reference] == [
        json.dumps(r, sort_keys=True) for r in records
    ]


class TestPresetParity:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_all_presets_bit_identical(self, preset):
        scenarios = SweepSpec.preset(preset).expand()
        _assert_identical(_scalar_records(scenarios), _batch_records(scenarios))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_all_presets_bit_identical_without_numpy(self, preset, monkeypatch):
        # CI's tier-1 job installs no NumPy: with it unimportable, a fresh
        # estimator must compile and evaluate every preset bit-identically.
        scenarios = SweepSpec.preset(preset).expand()
        scalar = _scalar_records(scenarios)
        monkeypatch.setitem(sys.modules, "numpy", None)
        estimator = BatchEstimator()
        assert not estimator.numpy_available
        _assert_identical(scalar, estimator.evaluate(scenarios))


class TestConfigurationParity:
    def test_without_wafer_waste(self):
        config = EstimatorConfig(include_wafer_waste=False)
        scenarios = SweepSpec.preset("ga102-grid").expand()
        assert _scalar_records(scenarios, config=config) == _batch_records(
            scenarios, config=config
        )

    def test_without_design_cfp(self):
        config = EstimatorConfig(include_design=False)
        scenarios = SweepSpec.preset("ga102-quick").expand()
        assert _scalar_records(scenarios, config=config) == _batch_records(
            scenarios, config=config
        )

    def test_monolithic_systems(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-monolithic", "a15-monolithic", "emr-monolithic"],
                "carbon_sources": ["coal", "gas", "wind"],
                "lifetimes": [2, 6, 10],
                "system_volumes": [1e3, 1e6],
            }
        )
        scenarios = spec.expand()
        _assert_identical(_scalar_records(scenarios), _batch_records(scenarios))

    def test_all_architectures_with_parameter_overrides(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet", "emr-2chiplet", "arvr-3d-1k-2mb"],
                "packaging": [
                    "monolithic",
                    "rdl_fanout",
                    {"type": "rdl", "layers": 4, "technology_nm": 22},
                    "silicon_bridge",
                    "passive_interposer",
                    "active_interposer",
                    "3d",
                    {"type": "3d", "bond_type": "hybrid_bond"},
                ],
                "carbon_sources": ["coal", "solar"],
            }
        )
        scenarios = spec.expand()
        _assert_identical(_scalar_records(scenarios), _batch_records(scenarios))

    def test_custom_default_sources(self):
        config = EstimatorConfig(
            fab_carbon_source="grid_taiwan",
            package_carbon_source="grid_eu",
            design_carbon_source="hydro",
        )
        scenarios = SweepSpec.preset("ga102-quick").expand()
        assert _scalar_records(scenarios, config=config) == _batch_records(
            scenarios, config=config
        )


class TestConfigContextParity:
    """Config axes that share one geometry stage, and one that must not.

    ``wafer_diameter_mm`` and ``defect_density_scale`` only change per-context
    terms, so their contexts share compiled geometry; ``router_spec`` changes
    the interposer's router overhead, so its contexts must not.  The base
    config's spacing is not the default, so a geometry stage built for the
    wrong spacing shows too.
    """

    CONFIG = EstimatorConfig(chiplet_spacing_mm=0.75)
    SPEC = SweepSpec.from_dict(
        {
            "testcases": ["ga102-3chiplet", "emr-2chiplet"],
            "nodes": [7, 14],
            "packaging": ["rdl_fanout", "passive_interposer", "3d"],
            "carbon_sources": ["coal", "wind"],
            "wafer_diameter_mm": [300, 450],
            "defect_density_scale": [0.5, 2.0],
            "router_spec": [{"ports": 4}, {"ports": 8, "flit_width_bits": 256}],
        }
    )

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_records(self.SPEC, config=self.CONFIG)

    def test_batch_estimator_bit_identical(self, reference):
        estimator = BatchEstimator(config=self.CONFIG)
        _assert_identical(reference, estimator.evaluate(self.SPEC.expand()))
        # 36 templates (12 node mixes x 3 packagings) in each of the 8
        # config contexts (plus the unused base), one geometry per router spec.
        stats = estimator.cache_stats()
        assert (stats["contexts"], stats["templates"], stats["geometries"]) == (
            9, 8 * 36, 2 * 36
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_session_sweep_bit_identical(self, reference, jobs):
        from repro import Session

        records = Session(self.CONFIG, jobs=jobs).sweep(self.SPEC).records
        _assert_identical(reference, list(records))


class TestOutOfTreeArchitecture:
    """The example plugin architecture meets the same parity bar as built-ins.

    The plugin module itself comes from the session-scoped
    ``custom_packaging`` fixture in ``tests/conftest.py``.
    """

    def test_example_registers_through_the_public_api(self, custom_packaging):
        from repro.packaging.registry import packaging_names, spec_from_dict

        assert "organic_bridge" in packaging_names()
        assert isinstance(
            spec_from_dict({"type": "ofb"}), custom_packaging.OrganicBridgeSpec
        )

    def test_plugin_architecture_bit_identical_across_backends(self, custom_packaging):
        example = custom_packaging
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet", "emr-2chiplet"],
                "packaging": [
                    "organic_bridge",
                    {"type": "ofb", "substrate_layers": 7, "bridge_range_mm": 2.0},
                    "rdl_fanout",
                ],
                "carbon_sources": ["coal", "wind"],
                "lifetimes": [2, 6],
            }
        )
        scenarios = spec.expand()
        scalar = _scalar_records(scenarios)
        batch = _batch_records(scenarios)
        _assert_identical(scalar, batch)
        assert any(r["packaging"] == example.OrganicBridgeModel.architecture for r in scalar)

    def test_plugin_spec_subclass_still_resolves(self, custom_packaging):
        example = custom_packaging
        from repro.packaging.registry import build_packaging_model

        class TweakedSpec(example.OrganicBridgeSpec):
            pass

        model = build_packaging_model(TweakedSpec())
        assert isinstance(model, example.OrganicBridgeModel)


class TestScenarioOrdering:
    def test_interleaved_groups_emit_in_input_order(self):
        # Scenarios deliberately ordered so template groups are
        # non-contiguous: the engine must still stream records in input
        # order (buffering only the out-of-order tail of each group).
        quick = SweepSpec.preset("ga102-quick").expand()
        interleaved = quick[::2] + quick[1::2]
        scalar = _scalar_records(interleaved)
        batch = _batch_records(interleaved)
        _assert_identical(scalar, batch)
        assert [r["scenario"] for r in batch] == [s.index for s in interleaved]

    def test_duplicate_scenarios_each_get_a_record(self):
        scenario = Scenario(index=3, base_kind="testcase", base_ref="ga102-3chiplet")
        records = _batch_records([scenario, scenario, scenario])
        assert len(records) == 3
        assert records[0] == records[1] == records[2]


class TestRowTermReuse:
    def test_equal_sources_volumes_and_lifetimes_keep_each_rows_values(self):
        # The kernel computes the embodied terms once per (fab source,
        # volume) within a group.  None (the default), the default given
        # explicitly ("coal" is the default fab source) and int/float
        # spellings of one volume or lifetime must still give every row
        # the oracle's record, types included.
        combos = list(
            itertools.product(
                (None, "coal", "wind"),
                (None, 100000, 1000, 1000.0),
                (None, ga102.LIFETIME_YEARS, 2, 2.0, 3.5),
            )
        )
        rows = [
            Scenario(
                index=index,
                base_kind="testcase",
                base_ref="ga102-3chiplet",
                fab_source=fab_source,
                system_volume=volume,
                lifetime_years=lifetime,
            )
            for index, (fab_source, volume, lifetime) in enumerate(combos + combos[::-1])
        ]
        assert repr(list(SweepEngine().iter_records(rows))) == repr(reference_records(rows))


class TestParallelBatch:
    def test_parallel_batch_matches_serial(self):
        scenarios = SweepSpec.preset("ga102-grid").expand()
        serial = _batch_records(scenarios)
        parallel = list(SweepEngine(jobs=2).iter_records(scenarios))
        _assert_identical(serial, parallel)

    def test_parallel_batch_matches_scalar(self):
        scenarios = SweepSpec.preset("green-fab").expand()
        _assert_identical(
            _scalar_records(scenarios),
            list(SweepEngine(jobs=3).iter_records(scenarios)),
        )


class TestResume:
    def test_engine_resume_skips_done_scenarios(self, tmp_path):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        path = tmp_path / "out.jsonl"
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(path) as store:
            engine.run(scenarios[:5], store=store)
        with JsonlResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=store)
        assert summary.skipped_count == 5
        assert summary.scenario_count == len(scenarios) - 5
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]

    def test_resumed_store_equals_uninterrupted_run(self, tmp_path):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        full = tmp_path / "full.jsonl"
        with JsonlResultStore(full) as store:
            for record in reference_records(scenarios):
                store.append(record)
        part = tmp_path / "part.jsonl"
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(part) as store:
            engine.run(scenarios[:7], store=store)
        with JsonlResultStore(part, append=True) as store:
            engine.run(scenarios, store=store, resume=part)
        by_id = {r["scenario"]: r for r in load_records(part)}
        for record in load_records(full):
            assert by_id[record["scenario"]] == record

    def test_resume_against_missing_file_is_noop(self, tmp_path):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        summary = SweepEngine(jobs=1).run(
            scenarios, resume=tmp_path / "absent.jsonl"
        )
        assert summary.skipped_count == 0
        assert summary.scenario_count == len(scenarios)

    def test_cli_resume_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "resume.jsonl"
        scenarios = SweepSpec.preset("ga102-quick").expand()
        with JsonlResultStore(path) as store:
            SweepEngine(jobs=1).run(scenarios[:6], store=store)
        code = main(
            ["sweep", "--preset", "ga102-quick", "--resume", str(path), "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6 scenarios already evaluated" in out
        assert len(completed_scenario_ids(path)) == len(scenarios)
        # a second resume finds nothing left to do
        assert main(["sweep", "--preset", "ga102-quick", "--resume", str(path)]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_cli_resume_with_the_other_cost_setting_fails_before_any_row(
        self, tmp_path, capsys
    ):
        # A --no-cost store resumed with cost would append rows of another
        # schema: the run must stop before evaluating, store untouched.
        path = tmp_path / "nc.jsonl"
        sweep = ["sweep", "--preset", "ga102-quick", "--quiet"]
        assert main(sweep + ["--no-cost", "--out", str(path)]) == 0
        before = path.read_bytes()
        capsys.readouterr()
        code = main(
            sweep + ["--set", "wafer_diameter_mm=300,450", "--resume", str(path),
                     "--pareto", "total_carbon_g,cost_usd"]
        )
        assert code == 2
        assert "error: [invalid-spec]" in capsys.readouterr().err
        assert path.read_bytes() == before
        grown = sweep + ["--no-cost", "--set", "wafer_diameter_mm=300,450"]
        assert main(grown + ["--resume", str(path)]) == 0
        assert len(load_records(path)) == 2 * len(before.splitlines())

    def test_cli_resume_conflicting_out_fails(self, tmp_path, capsys):
        code = main(
            ["sweep", "--preset", "ga102-quick",
             "--resume", str(tmp_path / "a.jsonl"), "--out", str(tmp_path / "b.jsonl")]
        )
        assert code == 2
        assert "resume" in capsys.readouterr().err

    def test_cli_resume_accepts_equivalent_out_spelling(self, tmp_path, capsys):
        # --out and --resume naming the same file through different
        # spellings (here: a redundant ./ and .. hop) must not be rejected.
        path = tmp_path / "same.jsonl"
        alias = tmp_path / "sub" / ".." / "same.jsonl"
        (tmp_path / "sub").mkdir()
        code = main(
            ["sweep", "--preset", "ga102-quick", "--resume", str(path), "--out", str(alias), "--quiet"]
        )
        assert code == 0
        assert len(load_records(path)) == SweepSpec.preset("ga102-quick").count()

    def test_resume_tolerates_torn_final_jsonl_line(self, tmp_path):
        # A crash mid-append leaves a truncated last line; resume must treat
        # it as not-yet-evaluated instead of refusing the whole file.
        scenarios = SweepSpec.preset("ga102-quick").expand()
        path = tmp_path / "crashed.jsonl"
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(path) as store:
            engine.run(scenarios[:4], store=store)
        full_line = path.read_text(encoding="utf-8")
        torn = full_line + '{"scenario": 4, "total_car'
        path.write_text(torn, encoding="utf-8")
        assert completed_scenario_ids(path) == {0, 1, 2, 3}

    def test_resume_repairs_torn_tail_before_appending(self, tmp_path):
        # Appending after a torn line (which has no newline) would weld the
        # next record onto the fragment; run(resume=...) must truncate the
        # fragment first so the resumed file is fully valid JSONL.
        scenarios = SweepSpec.preset("ga102-quick").expand()
        path = tmp_path / "crashed.jsonl"
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(path) as store:
            engine.run(scenarios[:4], store=store)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scenario": 4, "total_car')  # torn: no newline
        with JsonlResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=path)
        assert summary.skipped_count == 4
        records = load_records(path)  # strict reader: file must be intact
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]
        # and a re-resume finds everything done
        assert completed_scenario_ids(path) == {s.index for s in scenarios}

    def test_cli_resume_repairs_torn_tail(self, tmp_path, capsys):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        path = tmp_path / "crashed.jsonl"
        with JsonlResultStore(path) as store:
            SweepEngine(jobs=1).run(scenarios[:3], store=store)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scenario": 3, "tot')
        code = main(
            ["sweep", "--preset", "ga102-quick", "--resume", str(path), "--quiet"]
        )
        assert code == 0
        assert "repaired torn tail" in capsys.readouterr().out
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]

    def test_resume_repairs_missing_final_newline(self, tmp_path):
        # A crash can also tear *between* the record and its newline: the
        # last line parses fine but is unterminated, and a naive append
        # would weld the next record onto it.
        from repro.sweep.store import repair_torn_tail

        scenarios = SweepSpec.preset("ga102-quick").expand()
        path = tmp_path / "crashed.jsonl"
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(path) as store:
            engine.run(scenarios[:4], store=store)
        content = path.read_text(encoding="utf-8")
        assert content.endswith("\n")
        path.write_text(content[:-1], encoding="utf-8")  # cut only the newline
        assert repair_torn_tail(path) is True
        assert path.read_text(encoding="utf-8") == content
        assert repair_torn_tail(path) is False  # idempotent
        with JsonlResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=path)
        assert summary.skipped_count == 4
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]

    def test_resumed_summaries_cover_stored_records(self, tmp_path, capsys):
        # best/top/pareto of a resumed run must fold in the records already
        # on disk, not just the newly evaluated tail.
        scenarios = SweepSpec.preset("ga102-quick").expand()
        full = SweepEngine(jobs=1).run(scenarios)
        assert full.best is not None
        best_id = full.best["scenario"]
        # store exactly the scenarios containing the global best
        stored = [s for s in scenarios if s.index == best_id]
        path = tmp_path / "partial.jsonl"
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(path) as store:
            engine.run(stored, store=store)
        with JsonlResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=path)
        assert summary.best is not None
        assert summary.best["scenario"] == best_id
        assert summary.best["total_carbon_g"] == full.best["total_carbon_g"]
        # CLI path: the printed best line names the stored best scenario
        path_cli = tmp_path / "partial_cli.jsonl"
        with JsonlResultStore(path_cli) as store:
            SweepEngine(jobs=1).run(stored, store=store)
        code = main(
            ["sweep", "--preset", "ga102-quick", "--resume", str(path_cli)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"best Ctot = {full.best['total_carbon_g'] / 1000.0:.2f} kg" in out

    def test_resume_still_rejects_mid_file_corruption(self, tmp_path):
        import pytest as _pytest

        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"scenario": 0, "total\n{"scenario": 1, "total_carbon_g": 1.0}\n',
            encoding="utf-8",
        )
        with _pytest.raises(Exception):
            completed_scenario_ids(path)


class TestCsvResume:
    """CSV stores survive the same crash artifacts as JSONL ones."""

    @staticmethod
    def _seed_store(tmp_path, count):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        path = tmp_path / "crashed.csv"
        engine = SweepEngine(jobs=1)
        with CsvResultStore(path) as store:
            engine.run(scenarios[:count], store=store)
        return scenarios, path, engine

    def test_resume_tolerates_torn_final_csv_row(self, tmp_path):
        # A crash mid-append leaves a row with fewer fields than the
        # header; resume must treat it as not-yet-evaluated instead of
        # counting (or choking on) the fragment.
        scenarios, path, _ = self._seed_store(tmp_path, 4)
        with open(path, "a", encoding="utf-8", newline="") as handle:
            handle.write("4,ga102-3chiplet,7.0;7.0")  # torn: no newline
        assert completed_scenario_ids(path) == {0, 1, 2, 3}

    def test_resume_repairs_torn_csv_tail_before_appending(self, tmp_path):
        # Appending after a torn row (which has no newline) would weld the
        # next record onto the fragment; run(resume=...) must truncate it.
        scenarios, path, engine = self._seed_store(tmp_path, 4)
        intact = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b"4,ga102-3chiplet,7.0;7.0")
        with CsvResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=path)
        assert summary.skipped_count == 4
        assert path.read_bytes().startswith(intact)  # fragment gone, rows intact
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]
        assert completed_scenario_ids(path) == {s.index for s in scenarios}

    def test_resume_repairs_missing_final_csv_newline(self, tmp_path):
        # A crash can also tear *between* the record and its line ending:
        # the last row parses fine but is unterminated, and a naive append
        # would weld the next record onto it.
        from repro.sweep.store import repair_torn_tail

        scenarios, path, engine = self._seed_store(tmp_path, 4)
        content = path.read_bytes()
        assert content.endswith(b"\r\n")
        path.write_bytes(content[:-1])  # cut only the '\n', leaving a bare '\r'
        assert repair_torn_tail(path) is True
        assert path.read_bytes() == content
        assert repair_torn_tail(path) is False  # idempotent
        with CsvResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=path)
        assert summary.skipped_count == 4
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]

    def test_resumed_csv_equals_uninterrupted_run(self, tmp_path):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        full = tmp_path / "full.csv"
        with CsvResultStore(full) as store:
            for record in reference_records(scenarios):
                store.append(record)
        part = tmp_path / "part.csv"
        engine = SweepEngine(jobs=1)
        with CsvResultStore(part) as store:
            engine.run(scenarios[:7], store=store)
        with open(part, "ab") as handle:
            handle.write(b"7,ga102-3chiplet")  # torn row from the "crash"
        with CsvResultStore(part, append=True) as store:
            engine.run(scenarios, store=store, resume=part)
        by_id = {r["scenario"]: r for r in load_records(part)}
        for record in load_records(full):
            assert by_id[record["scenario"]] == record

    def test_cli_csv_resume_repairs_torn_tail(self, tmp_path, capsys):
        scenarios, path, _ = self._seed_store(tmp_path, 3)
        with open(path, "ab") as handle:
            handle.write(b"3,ga102-3chiplet,7.0")
        code = main(
            ["sweep", "--preset", "ga102-quick", "--resume", str(path), "--quiet"]
        )
        assert code == 0
        assert "repaired torn tail" in capsys.readouterr().out
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]

    def test_csv_resume_tolerates_nul_padded_torn_row(self, tmp_path):
        # Power-loss crashes can leave NUL padding in the torn final row;
        # Python <= 3.10's csv module raises on NULs, so both the repair
        # path and the tolerant reader must treat the row as unwritten
        # rather than crash on the file they exist to rescue.
        from repro.sweep.store import repair_torn_tail

        scenarios, path, engine = self._seed_store(tmp_path, 4)
        intact = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b"4,ga102-3chiplet,\x00\x00\x00\x00")
        assert completed_scenario_ids(path) == {0, 1, 2, 3}
        assert repair_torn_tail(path) is True
        assert path.read_bytes() == intact
        with CsvResultStore(path, append=True) as store:
            summary = engine.run(scenarios, store=store, resume=path)
        assert summary.skipped_count == 4
        records = load_records(path)
        assert sorted(r["scenario"] for r in records) == [s.index for s in scenarios]

    def test_csv_resume_still_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text(
            "scenario,total_carbon_g\r\n0\r\n1,2.5\r\n",  # short row mid-file
            encoding="utf-8",
            newline="",
        )
        with pytest.raises(ValueError):
            completed_scenario_ids(path)

    def test_empty_and_header_only_csv_files(self, tmp_path):
        from repro.sweep.store import repair_torn_tail

        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        assert repair_torn_tail(empty) is False
        assert completed_scenario_ids(empty) == set()
        header_only = tmp_path / "header.csv"
        header_only.write_bytes(b"scenario,total_carbon_g")  # unterminated header
        # A store writes its header with its first rows: a lone header is a
        # torn first write, possibly torn mid-header, with no row to save.
        assert repair_torn_tail(header_only) is True
        assert header_only.read_bytes() == b""
        assert completed_scenario_ids(header_only) == set()

    @staticmethod
    def _torn_header_store(tmp_path):
        path = tmp_path / "torn-header.csv"
        path.write_bytes(b"scenario,base,nod")  # the first write, torn
        return path

    def test_cli_resume_of_a_torn_header_equals_a_fresh_run(self, tmp_path, capsys):
        sweep = ["sweep", "--preset", "ga102-quick", "--quiet"]
        fresh = tmp_path / "fresh.csv"
        assert main(sweep + ["--out", str(fresh)]) == 0
        path = self._torn_header_store(tmp_path)
        assert main(sweep + ["--resume", str(path)]) == 0
        assert "repaired torn tail" in capsys.readouterr().out
        assert path.read_bytes() == fresh.read_bytes()

    def test_session_resume_of_a_torn_header_equals_a_fresh_run(self, tmp_path):
        fresh = Session().sweep(preset="ga102-quick", out=tmp_path / "fresh.csv")
        path = self._torn_header_store(tmp_path)
        resumed = Session().sweep(preset="ga102-quick", out=path, resume=True)
        assert resumed.summary.skipped_count == 0
        assert resumed.records == fresh.records
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


class TestCostRoundTrip:
    def test_cost_usd_round_trips_jsonl_and_csv(self, tmp_path):
        scenarios = SweepSpec.preset("volume-amortisation").expand()
        records = _batch_records(scenarios)
        assert all("cost_usd" in r for r in records)

        jsonl_path = tmp_path / "cost.jsonl"
        with JsonlResultStore(jsonl_path) as store:
            for record in records:
                store.append(record)
        assert load_records(jsonl_path) == [
            json.loads(json.dumps(r)) for r in records
        ]

        csv_path = tmp_path / "cost.csv"
        with CsvResultStore(csv_path) as store:
            for record in records:
                store.append(record)
        revived = load_records(csv_path)
        assert [r["cost_usd"] for r in revived] == [r["cost_usd"] for r in records]
        assert [r["scenario"] for r in revived] == [r["scenario"] for r in records]

    def test_cost_usd_varies_with_volume_axis(self):
        records = _batch_records(SweepSpec.preset("volume-amortisation").expand())
        by_base: dict = {}
        for record in records:
            by_base.setdefault((record["base"], record["packaging"]), set()).add(
                record["cost_usd"]
            )
        # NRE amortisation: more volume -> lower cost, so each base/packaging
        # pair sees as many distinct costs as there are volumes.
        for costs in by_base.values():
            assert len(costs) == 5

    def test_cost_usd_feeds_pareto_objectives(self):
        from repro.core.explorer import pareto_front
        from repro.sweep.store import rows_from_records

        records = _batch_records(SweepSpec.preset("ga102-quick").expand())
        front = pareto_front(
            rows_from_records(records), ["total_carbon_g", "cost_usd"]
        )
        assert front  # non-empty and no KeyError: cost_usd is a real objective
