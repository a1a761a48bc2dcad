"""Integration tests: the persistent compile cache across processes.

Two contracts of :class:`repro.fastpath.DiskCompileCache`:

* **No torn entries.**  Any number of concurrent writers — including
  writers racing on the *same* entry under both ``fork`` and ``spawn``
  start methods — leave only complete, loadable entries behind: readers
  see either the whole pickle or nothing (temp file + atomic rename).
* **Engine parity.**  A multi-process batch sweep mounted on a shared
  cache directory produces records bit-identical to the serial, cache-less
  path, and a second engine run against the warm directory compiles
  nothing.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.fastpath import BatchEstimator, DiskCompileCache
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec

SCENARIOS = SweepSpec.preset("ga102-quick").expand()


def _hammer_writer(root, worker, barrier):
    """Write shared + private entries as simultaneously as possible."""
    cache = DiskCompileCache(root)
    barrier.wait()
    for round_index in range(20):
        # Every worker races on the same 5 shared keys with identical
        # payloads (the compile-cache situation) ...
        cache.store("template", None, ("shared", round_index % 5), {"round": round_index % 5, "blob": b"x" * 4096})
        # ... and writes private entries to keep directory churn up.
        cache.store("floorplan", None, ("private", worker, round_index), list(range(64)))


def _run_hammer(start_method, root, workers=4):
    ctx = multiprocessing.get_context(start_method)
    barrier = ctx.Barrier(workers)
    procs = [
        ctx.Process(target=_hammer_writer, args=(root, i, barrier))
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0


class TestConcurrentWriters:
    @pytest.mark.parametrize(
        "start_method",
        [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
    )
    def test_concurrent_writers_never_tear_an_entry(self, tmp_path, start_method):
        root = tmp_path / "cc"
        _run_hammer(start_method, str(root))

        reader = DiskCompileCache(root)
        entries = sorted(root.glob("*/*.pkl"))
        # 5 shared + 4 workers x 20 private entries.
        assert len(entries) == 5 + 4 * 20
        for path in entries:
            payload = pickle.loads(path.read_bytes())  # loads or the entry is torn
            assert set(payload) == {"token", "value"}
        for shared in range(5):
            value = reader.load("template", None, ("shared", shared))
            assert value == {"round": shared, "blob": b"x" * 4096}
        # No orphaned temp files survive the stampede.
        assert [p for p in root.rglob("*.tmp-*")] == []


class TestEngineParity:
    def test_multiprocess_sweep_with_cache_is_bit_identical(self, tmp_path):
        baseline = list(SweepEngine(jobs=1).iter_records(SCENARIOS))
        cached = list(
            SweepEngine(jobs=2, compile_cache=tmp_path / "cc").iter_records(SCENARIOS)
        )
        assert cached == baseline

        # The workers populated the directory; a fresh estimator now
        # starts warm and compiles nothing.
        warm = BatchEstimator(persistent_cache=tmp_path / "cc")
        records = warm.evaluate(SCENARIOS)
        assert records == baseline
        assert warm.cache_stats()["compiles"] == 0

    def test_compile_cache_excludes_shared_estimator(self, tmp_path):
        with pytest.raises(ValueError, match="batch_estimator"):
            SweepEngine(
                batch_estimator=BatchEstimator(),
                compile_cache=tmp_path / "cc",
            )
