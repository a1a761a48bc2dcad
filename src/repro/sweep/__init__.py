"""Parallel scenario-sweep engine for large carbon design-space studies.

The paper's closing argument (Section VI) is that carbon must be treated as
a first-order design metric, which requires evaluating *large* scenario
spaces — every node assignment times every packaging architecture times
every fab energy source, lifetime and manufacturing volume.  This package
provides the scale-out machinery for that:

:mod:`repro.sweep.spec`
    Declarative :class:`~repro.sweep.spec.SweepSpec` scenario grids with
    cartesian-product expansion and named presets.
:mod:`repro.sweep.engine`
    :class:`~repro.sweep.engine.SweepEngine` — sharded, process-parallel
    scenario evaluation on the compiled batch fast path
    (:mod:`repro.fastpath`) with resume-from-store, and
    :func:`~repro.sweep.engine.reference_records`, the serial scalar
    oracle whose records the engine reproduces bit for bit.
:mod:`repro.sweep.store`
    The streaming JSONL result store (crash-safe, constant memory), its
    one-shot CSV export and the :class:`~repro.sweep.store.SweepRow`
    adapter that :func:`repro.core.explorer.pareto_front` and
    :meth:`repro.api.Session.explore` read records through.
"""

from repro.sweep.engine import SweepEngine, SweepSummary, reference_records
from repro.sweep.spec import PRESETS, Scenario, SweepSpec, load_spec
from repro.sweep.store import (
    ResultStore,
    SweepRow,
    completed_scenario_ids,
    export_csv,
    iter_records,
    load_records,
    load_rows,
    open_store,
    repair_torn_tail,
    rows_from_records,
)

__all__ = [
    "completed_scenario_ids",
    "repair_torn_tail",
    "SweepSpec",
    "Scenario",
    "PRESETS",
    "load_spec",
    "SweepEngine",
    "SweepSummary",
    "reference_records",
    "ResultStore",
    "SweepRow",
    "export_csv",
    "open_store",
    "iter_records",
    "load_records",
    "load_rows",
    "rows_from_records",
]
