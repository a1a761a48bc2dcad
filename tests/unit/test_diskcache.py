"""Unit tests for repro.fastpath.diskcache (persistent compile cache)."""

from __future__ import annotations

import pickle

import pytest

from repro.fastpath import BatchEstimator, DiskCompileCache, TemplateCompiler, as_disk_cache
from repro.fastpath import diskcache as diskcache_module
from repro.sweep.spec import SweepSpec
from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, table_signature


class TestDiskCompileCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCompileCache(tmp_path / "cc")
        key = ("testcase", "ga102-3chiplet", (7.0, 7.0, 7.0))
        assert cache.load("template", "salt", key) is None
        cache.store("template", "salt", key, {"answer": 42.0})
        assert cache.load("template", "salt", key) == {"answer": 42.0}
        assert cache.stats() == {
            "disk_hits": 1,
            "disk_misses": 1,
            "disk_writes": 1,
            "disk_errors": 0,
            "disk_entries": 1,
        }

    def test_entries_are_keyed_on_kind_salt_and_key(self, tmp_path):
        cache = DiskCompileCache(tmp_path)
        cache.store("template", "a", ("k",), 1)
        assert cache.load("template", "b", ("k",)) is None
        assert cache.load("floorplan", "a", ("k",)) is None
        assert cache.load("template", "a", ("other",)) is None
        assert cache.load("template", "a", ("k",)) == 1

    def test_plugin_api_version_invalidates(self, tmp_path, monkeypatch):
        cache = DiskCompileCache(tmp_path)
        cache.store("template", None, ("k",), "old")
        monkeypatch.setattr(diskcache_module, "PLUGIN_API_VERSION", 999)
        assert cache.load("template", None, ("k",)) is None
        cache.store("template", None, ("k",), "new")
        assert cache.load("template", None, ("k",)) == "new"

    def test_cache_format_version_invalidates(self, tmp_path, monkeypatch):
        cache = DiskCompileCache(tmp_path)
        cache.store("template", None, ("k",), "old")
        monkeypatch.setattr(diskcache_module, "CACHE_FORMAT_VERSION", 999)
        assert cache.load("template", None, ("k",)) is None

    def test_corrupt_entry_is_a_miss_and_rewritable(self, tmp_path):
        cache = DiskCompileCache(tmp_path)
        cache.store("template", None, ("k",), [1.0, 2.0])
        path = cache.path_for("template", None, ("k",))
        path.write_bytes(b"\x80garbage-not-a-pickle")
        assert cache.load("template", None, ("k",)) is None
        assert cache.errors == 1
        cache.store("template", None, ("k",), [1.0, 2.0])
        assert cache.load("template", None, ("k",)) == [1.0, 2.0]

    def test_token_mismatch_is_a_miss(self, tmp_path):
        # An entry whose recorded token differs from the requested triple
        # (hash collision, hand-copied file) must never be served.
        cache = DiskCompileCache(tmp_path)
        path = cache.path_for("template", None, ("k",))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"token": "something-else", "value": 1}))
        assert cache.load("template", None, ("k",)) is None
        assert cache.errors == 1

    def test_writes_leave_no_temp_files(self, tmp_path):
        cache = DiskCompileCache(tmp_path)
        for i in range(10):
            cache.store("template", None, (f"k{i}",), i)
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".pkl"]
        assert leftovers == []
        assert cache.entry_count() == 10

    def test_pickles_to_the_same_mount_point(self, tmp_path):
        cache = DiskCompileCache(tmp_path)
        cache.store("template", None, ("k",), "v")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert clone.load("template", None, ("k",)) == "v"
        assert clone.hits == 1 and cache.hits == 0  # counters are per-instance


class TestAsDiskCache:
    def test_normalises_none_path_and_instance(self, tmp_path):
        assert as_disk_cache(None) is None
        cache = as_disk_cache(tmp_path / "cc")
        assert isinstance(cache, DiskCompileCache)
        assert as_disk_cache(cache) is cache
        assert as_disk_cache(str(tmp_path / "cc2")).root.exists()

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="persistent_cache"):
            as_disk_cache(42)


class TestTableSignature:
    def test_default_table_is_stable_and_distinct_from_edits(self):
        assert table_signature() == table_signature(DEFAULT_TECHNOLOGY_TABLE)
        nodes = list(DEFAULT_TECHNOLOGY_TABLE)
        import dataclasses

        edited = type(DEFAULT_TECHNOLOGY_TABLE)(
            [dataclasses.replace(nodes[0], logic_density_mtr_per_mm2=nodes[0].logic_density_mtr_per_mm2 * 2)]
            + nodes[1:]
        )
        assert table_signature(edited) != table_signature()

    def test_verbatim_table_copy_shares_the_builtin_signature(self):
        # Content, not identity: a verbatim copy of the built-in table
        # reads the same persistent compile-cache entries.
        copy = type(DEFAULT_TECHNOLOGY_TABLE)(nodes=list(DEFAULT_TECHNOLOGY_TABLE))
        assert copy is not DEFAULT_TECHNOLOGY_TABLE
        assert table_signature(copy) == table_signature(None)
        assert table_signature(copy) == table_signature(DEFAULT_TECHNOLOGY_TABLE)


class TestPersistentCompilerSeam:
    SCENARIOS = SweepSpec.preset("ga102-quick").expand()

    def test_warm_disk_cache_skips_compiles_and_is_bit_identical(self, tmp_path):
        cold = BatchEstimator()
        baseline = cold.evaluate(self.SCENARIOS)

        first = BatchEstimator(persistent_cache=tmp_path / "cc")
        records_first = first.evaluate(self.SCENARIOS)
        stats_first = first.cache_stats()
        assert stats_first["compiles"] > 0
        assert stats_first["disk_hits"] == 0

        second = BatchEstimator(persistent_cache=tmp_path / "cc")
        records_second = second.evaluate(self.SCENARIOS)
        stats_second = second.cache_stats()
        assert stats_second["compiles"] == 0
        assert stats_second["disk_hits"] > 0

        # == on dicts of floats: exact bits, same keys, same order.
        assert records_first == baseline
        assert records_second == baseline

    def test_compiler_floorplans_persist_too(self, tmp_path):
        cache = DiskCompileCache(tmp_path / "cc")
        first = TemplateCompiler(persistent_cache=cache)
        first.compile("testcase", "ga102-3chiplet", (7.0, 7.0, 7.0), None)
        assert cache.writes > 0

        probe = DiskCompileCache(tmp_path / "cc")
        second = TemplateCompiler(persistent_cache=probe)
        second.compile("testcase", "ga102-3chiplet", (7.0, 7.0, 7.0), None)
        assert second.compiles == 0
        assert probe.hits > 0

    def test_different_config_does_not_share_entries(self, tmp_path):
        from repro.core.estimator import EstimatorConfig

        cache_dir = tmp_path / "cc"
        first = TemplateCompiler(persistent_cache=cache_dir)
        first.compile("testcase", "ga102-3chiplet", (7.0, 7.0, 7.0), None)

        other = TemplateCompiler(
            config=EstimatorConfig(wafer_diameter_mm=300.0),
            persistent_cache=cache_dir,
        )
        other.compile("testcase", "ga102-3chiplet", (7.0, 7.0, 7.0), None)
        assert other.compiles == 1  # template cannot come from the 450mm run
