"""Sweep-throughput benchmark: compiled batch engine vs the scalar oracle.

The acceptance bar of the ``repro.fastpath`` engine: on the paper-scale
``ga102-grid`` preset (4 nodes ^ 3 chiplets x 5 packagings x 2 fab sources
= 640 scenarios) the batch engine must deliver **>= 17x scenarios/sec**
over the serial scalar reference oracle
(:func:`repro.sweep.engine.reference_records`, one uncached
``EcoChip.estimate`` per scenario) at steady state, with bit-identical
records.  The floors were 10x and 1.5x against the kernel-memoising scalar
engine this oracle replaced; the oracle is ~1.7x slower than that engine,
so both floors are scaled by 1.7 to keep the gate as strict as before.

Steady state means the compiled-template caches are warm — the regime a
long-running scenario service (the ROADMAP's north star) operates in, and
the regime pytest-benchmark measures by design (it runs warm-up rounds).
The one-time compile cost is reported separately as the cold-start speedup
with a much smaller bar: even a single cold end-to-end evaluation of the
grid must beat the scalar oracle.

``test_sweep_to_jsonl_end_to_end`` gates a sweep streamed to a JSONL store
without collecting records (``Session.sweep(out=..., collect_records=False)``)
— the spec's template groups, compile, evaluate, render and write — on
the grid crossed with lifetimes and volumes, and checks the store's bytes
against the oracle's records.  ``test_sweep_parallel_end_to_end`` gates the
same grid at ``jobs=2`` on fork workers with the records collected: the
entry that crosses the process pool.  ``test_sweep_parallel_records_materialised``
adds reading every collected record back as a dict.
"""

from __future__ import annotations

import json
import time

from conftest import print_series

from repro import Session
from repro.fastpath import BatchEstimator
from repro.sweep.engine import reference_records
from repro.sweep.spec import SweepSpec, preset_dict

#: Steady-state (warm-template) speedup floor over the scalar oracle.
STEADY_STATE_SPEEDUP_FLOOR = 17.0

#: Cold-start (compile included) speedup floor — a sanity bound, not the bar.
COLD_START_SPEEDUP_FLOOR = 2.6

#: A process-cold start against a warm persistent compile cache must beat a
#: from-scratch compile by at least this factor (the disk-cache PR's bar).
WARM_DISK_SPEEDUP_FLOOR = 2.0

GRID = SweepSpec.preset("ga102-grid")

#: ga102-grid x lifetimes x volumes: 5,760 rows in 320 groups of 18.
STORE_GRID = SweepSpec.from_dict(
    {
        **preset_dict("ga102-grid"),
        "name": "ga102-grid-store",
        "lifetimes": [2, 4.5, 10],
        "system_volumes": [1000, 100000, 10000000.0],
    }
)


def _scalar_seconds(scenarios, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference_records(scenarios)
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_steady_state_speedup_at_least_10x(benchmark):
    scenarios = GRID.expand()
    scalar_seconds = _scalar_seconds(scenarios)

    estimator = BatchEstimator()
    # Warm compile + the parity precondition that makes the speedup claim
    # meaningful: identical records, not merely similar ones.
    warm_records = estimator.evaluate(scenarios)
    assert warm_records == reference_records(scenarios)

    benchmark(estimator.evaluate, scenarios)
    batch_seconds = benchmark.stats.stats.mean
    speedup = scalar_seconds / batch_seconds
    count = len(scenarios)
    print_series(
        "Sweep throughput, ga102-grid (640 scenarios)",
        [
            f"  scalar oracle : {count / scalar_seconds:10.0f} scenarios/s",
            f"  batch (steady): {count / batch_seconds:10.0f} scenarios/s",
            f"  speedup       : {speedup:10.1f}x (floor: {STEADY_STATE_SPEEDUP_FLOOR}x)",
        ],
    )
    assert speedup >= STEADY_STATE_SPEEDUP_FLOOR, (
        f"batch steady-state speedup {speedup:.1f}x is below the "
        f"{STEADY_STATE_SPEEDUP_FLOOR}x acceptance floor"
    )


def test_batch_cold_start_still_beats_scalar():
    scenarios = GRID.expand()
    scalar_seconds = _scalar_seconds(scenarios)

    cold_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        BatchEstimator().evaluate(scenarios)  # fresh caches: compile included
        cold_best = min(cold_best, time.perf_counter() - start)

    speedup = scalar_seconds / cold_best
    count = len(scenarios)
    print_series(
        "Cold-start (compile included), ga102-grid",
        [
            f"  scalar oracle: {count / scalar_seconds:10.0f} scenarios/s",
            f"  batch cold   : {count / cold_best:10.0f} scenarios/s",
            f"  speedup      : {speedup:10.1f}x (floor: {COLD_START_SPEEDUP_FLOOR}x)",
        ],
    )
    assert speedup >= COLD_START_SPEEDUP_FLOOR


def test_batch_cold_start_compile(benchmark):
    """Cold-start cost of the batch engine (template compilation included).

    Every round builds a fresh :class:`BatchEstimator`, so the measurement
    is dominated by template compilation — floorplanning, per-architecture
    ``compile_terms`` and the cost terms.  This pins the compile path in the
    benchmark gate: moving the closed-form packaging terms onto the model
    hooks (or future compiler work) must not regress cold-start latency.
    """
    scenarios = SweepSpec.preset("ga102-quick").expand()

    def cold():
        return BatchEstimator().evaluate(scenarios)

    records = benchmark(cold)
    assert len(records) == len(scenarios)


def test_batch_cold_start_warm_disk_cache(benchmark, tmp_path):
    """Process-cold start against a warm persistent compile cache.

    Every round builds a fresh :class:`BatchEstimator` — the same
    measurement as ``test_batch_cold_start_compile`` — but mounted on a
    :class:`repro.fastpath.DiskCompileCache` directory a previous
    "process" already populated, so templates and floorplans load from
    disk instead of compiling.  Records must stay bit-identical to the
    compiled path, and the load must beat the compile by at least
    ``WARM_DISK_SPEEDUP_FLOOR``.
    """
    scenarios = SweepSpec.preset("ga102-quick").expand()
    cache_dir = tmp_path / "compile-cache"

    baseline = BatchEstimator().evaluate(scenarios)
    seeder = BatchEstimator(persistent_cache=cache_dir)
    assert seeder.evaluate(scenarios) == baseline

    # Warm-directory precondition: a fresh estimator compiles nothing.
    probe = BatchEstimator(persistent_cache=cache_dir)
    assert probe.evaluate(scenarios) == baseline
    assert probe.cache_stats()["compiles"] == 0

    cold_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        BatchEstimator().evaluate(scenarios)  # fresh caches: compile included
        cold_best = min(cold_best, time.perf_counter() - start)

    def warm_disk_cold_start():
        return BatchEstimator(persistent_cache=cache_dir).evaluate(scenarios)

    records = benchmark(warm_disk_cold_start)
    assert records == baseline
    # Min vs min: cold_best is already a best-of-3 minimum, and minima are
    # the noise-robust estimator under CI contention (matching the gate).
    warm_seconds = benchmark.stats.stats.min
    speedup = cold_best / warm_seconds
    print_series(
        "Cold start vs warm disk cache, ga102-quick",
        [
            f"  compile from scratch: {cold_best * 1000:8.2f} ms",
            f"  load from disk cache: {warm_seconds * 1000:8.2f} ms",
            f"  speedup             : {speedup:8.1f}x (floor: {WARM_DISK_SPEEDUP_FLOOR}x)",
        ],
    )
    assert speedup >= WARM_DISK_SPEEDUP_FLOOR, (
        f"warm-disk-cache cold start speedup {speedup:.1f}x is below the "
        f"{WARM_DISK_SPEEDUP_FLOOR}x acceptance floor"
    )


def test_sweep_to_jsonl_end_to_end(benchmark, tmp_path):
    """Sweep-to-JSONL at ``jobs=1`` through ``Session.sweep``, records not collected.

    Every round streams the whole grid into a fresh store; the store must
    hold exactly the oracle's records, serialised one JSON line each.
    """
    session = Session()
    out = tmp_path / "sweep.jsonl"

    def sweep_to_store():
        return session.sweep(STORE_GRID, out=out, collect_records=False)

    result = benchmark(sweep_to_store)
    expected = b"".join(
        (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        for record in reference_records(STORE_GRID)
    )
    assert out.read_bytes() == expected
    count = result.summary.scenario_count
    print_series(
        f"Sweep to JSONL, {STORE_GRID.name} ({count} scenarios)",
        [f"  end to end: {count / benchmark.stats.stats.min:10.0f} scenarios/s (best round)"],
    )


def test_sweep_parallel_end_to_end(benchmark):
    """Sweep at ``jobs=2`` (fork workers) through ``Session.sweep``, records collected.

    Template groups go out to the workers and record blocks come back; the
    parent keeps the blocks, and the records read from them must equal the
    oracle's.
    """
    session = Session(jobs=2, mp_context="fork")
    result = benchmark(session.sweep, STORE_GRID)
    assert list(result.records) == reference_records(STORE_GRID)
    count = result.summary.scenario_count
    print_series(
        f"Parallel sweep, {STORE_GRID.name} ({count} scenarios, jobs=2)",
        [f"  end to end: {count / benchmark.stats.stats.min:10.0f} scenarios/s (best round)"],
    )


def test_sweep_parallel_records_materialised(benchmark):
    """The same ``jobs=2`` sweep with every record read back as a dict.

    Guards the caller who reads every record: the sweep plus
    ``list(result.records)`` (one dict built per row from the blocks).
    """
    session = Session(jobs=2, mp_context="fork")

    def sweep_and_read():
        return list(session.sweep(STORE_GRID).records)

    records = benchmark(sweep_and_read)
    assert records == reference_records(STORE_GRID)
    print_series(
        f"Parallel sweep + every record read, {STORE_GRID.name} ({len(records)} scenarios, jobs=2)",
        [f"  end to end: {len(records) / benchmark.stats.stats.min:10.0f} scenarios/s (best round)"],
    )


def test_scalar_estimator_microbenchmark(benchmark):
    """Scalar EcoChip.estimate latency (tracks the estimator refactor).

    PR 2 rebuilt ``estimate`` around reusable kernels and removed the second
    ``PackagedChiplet`` list construction; this pins the single-estimate
    latency so later refactors can't quietly regress the scalar hot path
    (measured ~229 us before the refactor, ~230 us after, on the dev box).
    """
    from repro.core.estimator import EcoChip
    from repro.testcases.registry import get_testcase

    system = get_testcase("ga102-3chiplet")
    estimator = EcoChip()
    report = benchmark(estimator.estimate, system)
    assert report.total_cfp_g > 0
