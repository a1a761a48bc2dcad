"""Universal typed axis registry: sweep any estimator knob.

Any knob of :class:`repro.core.estimator.EstimatorConfig` or
:class:`repro.core.system.ChipletSystem` becomes sweepable by registering a
typed :class:`Axis` (name, parser/validator, applier, optional batch
template hook) with :func:`register_axis` — mirroring how packaging
architectures plug in through
:func:`repro.packaging.registry.register_packaging`.  Registered axes work
everywhere at once: sweep-spec files, ``eco-chip sweep --set``, the
:class:`repro.api.Session` facade, and the compiled batch engine, with
records bit-identical to the scalar reference oracle.

Built-in axes (registered on import): ``wafer_diameter_mm``,
``defect_density_scale``, ``router_spec``, ``operating_power_w``,
``annual_energy_kwh``, ``duty_cycle``, ``vdd_v``, ``use_carbon_source``.
See ``examples/custom_axis.py`` for an out-of-tree registration.
"""

from repro.axes.registry import (
    Axis,
    apply_config_overrides,
    apply_system_overrides,
    axis_names,
    canonical_value,
    config_overrides_signature,
    describe_axes,
    get_axis,
    overrides_json,
    overrides_signature,
    register_axis,
    registered_axes,
    system_overrides_signature,
    template_overrides_signature,
    validate_overrides,
)
from repro.axes import builtin as _builtin  # noqa: F401  (registers built-ins)

__all__ = [
    "Axis",
    "apply_config_overrides",
    "apply_system_overrides",
    "axis_names",
    "canonical_value",
    "config_overrides_signature",
    "describe_axes",
    "get_axis",
    "overrides_json",
    "overrides_signature",
    "register_axis",
    "registered_axes",
    "system_overrides_signature",
    "template_overrides_signature",
    "validate_overrides",
]
