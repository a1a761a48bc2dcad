#!/usr/bin/env python3
"""Scenario sweep: the GA102 grid through the parallel sweep engine.

Expands the paper-scale ``ga102-grid`` preset (4 nodes ^ 3 chiplets x 5
packaging architectures x 2 fab energy sources = 640 scenarios), evaluates
it on the compiled batch engine (``repro.fastpath``) in-process and with
worker processes, checks both against the serial scalar reference oracle
bit-for-bit, streams the records to a JSONL file, and reports the Pareto
front under total carbon vs silicon area.

Run with::

    python examples/sweep_ga102.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core.explorer import pareto_front
from repro.sweep import (
    SweepEngine,
    SweepSpec,
    load_records,
    open_store,
    reference_records,
    rows_from_records,
)


def main() -> None:
    spec = SweepSpec.preset("ga102-grid")
    scenarios = spec.expand()
    print(f"spec {spec.name!r} expands into {len(scenarios)} scenarios")

    # In-process run, streaming to JSONL: templates compile once and each
    # template group evaluates as flat arithmetic.
    out_path = os.path.join(tempfile.mkdtemp(prefix="eco-chip-sweep-"), "results.jsonl")
    with open_store(out_path) as store:
        serial = SweepEngine(jobs=1).run(scenarios, store=store)
    print(
        f"jobs=1:   {serial.scenario_count} scenarios in {serial.elapsed_s:.2f}s "
        f"({serial.scenarios_per_second:,.0f}/s, compile included)"
    )

    # Parallel run (speedup depends on the host's core count).
    jobs = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    parallel_records = list(SweepEngine(jobs=jobs).iter_records(scenarios))
    parallel_s = time.perf_counter() - start
    print(
        f"jobs={jobs}:   {len(parallel_records)} scenarios in {parallel_s:.2f}s "
        f"({len(parallel_records) / parallel_s:,.0f}/s) on {os.cpu_count()} cpu(s)"
    )

    # The reference oracle: one full EcoChip.estimate per scenario, no
    # caches — the engine must reproduce it bit for bit.
    start = time.perf_counter()
    oracle_records = reference_records(scenarios)
    oracle_s = time.perf_counter() - start
    print(
        f"oracle:   {len(oracle_records)} scenarios in {oracle_s:.2f}s "
        f"({len(oracle_records) / oracle_s:,.0f}/s, scalar pipeline)"
    )

    stored = load_records(out_path)
    assert stored == oracle_records, "the engine must reproduce the oracle exactly"
    assert parallel_records == oracle_records, "parallel and serial paths must agree exactly"
    total = sum(r["total_carbon_g"] for r in stored)
    print(f"bit-identical records across paths: {total / 1000.0:,.1f} kg CO2e summed")

    best = serial.best
    print(
        f"\nlowest-carbon scenario: nodes={best['nodes']} {best['packaging']} "
        f"{best['fab_source']} -> {best['total_carbon_g'] / 1000.0:.2f} kg CO2e"
    )

    front = pareto_front(
        rows_from_records(stored), ["total_carbon_g", "silicon_area_mm2"]
    )
    print(f"\nPareto front (total carbon vs silicon area), {len(front)} points:")
    for row in front:
        print(
            f"  {row.label:<36} Ctot={row.objective('total_carbon_g') / 1000.0:8.2f} kg   "
            f"area={row.objective('silicon_area_mm2'):7.1f} mm2"
        )
    print(f"\nresults stored at {out_path}")


if __name__ == "__main__":
    main()
