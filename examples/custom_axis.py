"""An out-of-tree sweep axis plugged in through the axis registry.

The paper amortises each chiplet's design carbon over ``Ndes = 100`` SP&R
iterations (Table I), but ``design_iterations`` is not one of the sweep
grid's core axes and not a built-in :mod:`repro.axes` axis either.  This
example registers it from *outside* the library — one
:func:`repro.axes.register_axis` call — and sweeps it through the ordinary
sweep machinery without touching a line of :mod:`repro.sweep` internals:

* a **system-target applier** maps a value onto the
  :class:`~repro.core.system.ChipletSystem` (the same frozen-dataclass
  ``replace`` idiom the built-in operating axes use),
* a **validator** makes typos fail at spec construction, not mid-sweep,
* the registered axis immediately works in spec dictionaries,
  ``eco-chip sweep --set design_iterations=...``, ``Session`` calls and
  the sweep engine — with the same bit-parity bar the built-in axes meet,
  which this script asserts (the batch engine against the scalar
  reference oracle, serial vs ``jobs=2``; worker processes auto-import
  this module exactly like out-of-tree packaging plugins).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro import PLUGIN_API_VERSION, register_axis
from repro.core.system import ChipletSystem


def _apply_design_iterations(system: ChipletSystem, value: Any) -> ChipletSystem:
    return dataclasses.replace(system, design_iterations=int(value))


def _validate_design_iterations(value: Any) -> None:
    if int(value) < 1:
        raise ValueError(f"design iterations must be >= 1, got {value!r}")


#: One registration call makes the knob sweepable everywhere at once.  The
#: explicit ``api_version`` pin is what out-of-tree plugins should ship:
#: an incompatible installation fails the registration with a clear error.
register_axis(
    "design_iterations",
    "system",
    apply=_apply_design_iterations,
    validate=_validate_design_iterations,
    description="Ndes SP&R/analysis iterations amortised into the design "
    "CFP (Table I uses 100)",
    api_version=PLUGIN_API_VERSION,
)


def main() -> None:
    from repro import Session
    from repro.sweep import SweepSpec, reference_records

    spec = {
        "name": "custom-axis-demo",
        "testcases": ["ga102-3chiplet"],
        "packaging": ["rdl_fanout", "silicon_bridge"],
        # The out-of-tree axis, straight in the spec dictionary ...
        "design_iterations": [50, 100, 200],
        # ... composing freely with built-in axes and core knobs.
        "wafer_diameter_mm": [300.0, 450.0],
        "lifetimes": [2.0, 6.0],
    }

    oracle = reference_records(SweepSpec.from_dict(spec))
    serial = Session(jobs=1).sweep(spec)
    parallel = Session(jobs=2).sweep(spec)
    assert list(serial.records) == oracle, "the engine diverged from the oracle"
    assert list(serial.records) == list(parallel.records), "jobs=2 diverged from serial"
    print(
        f"{len(serial.records)} scenarios: oracle, batch and jobs=2 records "
        "are bit-identical for the plugged-in axis"
    )

    import json

    by_iterations: dict = {}
    for record in serial.records:
        iterations = json.loads(record["overrides"])["design_iterations"]
        best = by_iterations.get(iterations)
        if best is None or record["design_carbon_g"] > best["design_carbon_g"]:
            by_iterations[iterations] = record
    print(f"\n{'Ndes':>6} {'max Cdes (kg)':>14} {'Ctot (kg)':>12}")
    for iterations, record in sorted(by_iterations.items()):
        print(
            f"{iterations:>6} {record['design_carbon_g'] / 1000.0:>14.2f} "
            f"{record['total_carbon_g'] / 1000.0:>12.2f}"
        )


if __name__ == "__main__":
    main()
