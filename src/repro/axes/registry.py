"""Typed, registry-driven sweep axes for arbitrary estimator knobs.

The sweep subsystem's five legacy knobs (nodes, packaging, fab sources,
lifetimes, volumes) are hard-wired into :class:`repro.sweep.spec.Scenario`.
Every *other* knob of the estimator — wafer diameter, defect density,
router microarchitecture, operating conditions, and anything an out-of-tree
plugin can reach through :class:`repro.core.estimator.EstimatorConfig` or
:class:`repro.core.system.ChipletSystem` — is swept through this registry
instead: declare an :class:`Axis` once with :func:`register_axis` and it is
immediately sweepable from spec files, ``eco-chip sweep --set`` and the
:class:`repro.api.Session` facade, with the compiled batch engine held to
bit parity with the scalar reference oracle by the same contract the
packaging plugins meet.

An axis targets exactly one of two objects:

* ``target="system"`` — the applier maps ``(ChipletSystem, value)`` to a
  new system (operating-spec fields, design iterations, ...).  Applied by
  :meth:`repro.sweep.spec.Scenario.build_system` *before* the legacy knobs,
  and by the batch template compiler to the base system before template
  compilation — the same order, so engine and oracle stay bit-identical.
* ``target="config"`` — the applier maps ``(EstimatorConfig, value)`` to a
  new config (wafer diameter, defect-density scale, router spec, ...).
  The batch estimator builds one template compiler per distinct config
  signature; the reference oracle derives the config per scenario.

Axis values flow into batch template keys through the axis's optional
``compile_terms`` hook (default: a canonical value signature), mirroring
how packaging models carry their own ``compile_terms``: scenarios whose
axis values produce equal terms share one compiled template.

Like packaging plugins, out-of-tree axes registered from user modules are
recorded with the shared plugin-module snapshot, so ``jobs>1`` sweeps
re-import them inside worker processes under any multiprocessing start
method.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.packaging.registry import (
    CORE_SWEEP_AXES,
    _record_plugin_modules,
    load_entry_point_plugins,
)
from repro.plugins import (
    PLUGIN_API_VERSION,
    REGISTRY_LOCK,
    check_plugin_api_version,
)
from repro.yamlish import parse_inline

__all__ = [
    "Axis",
    "apply_config_overrides",
    "apply_system_overrides",
    "axis_names",
    "config_overrides_signature",
    "describe_axes",
    "get_axis",
    "overrides_json",
    "overrides_signature",
    "register_axis",
    "registered_axes",
    "system_overrides_signature",
    "validate_overrides",
]

#: Axis targets: what object the applier transforms.
AXIS_TARGETS = ("system", "config")

#: Names an axis may not take: the core grid axes of ``SweepSpec`` (which
#: the spec resolves first), the legacy per-scenario knob names (so an axis
#: cannot shadow ``Scenario``'s dedicated fields), and the bookkeeping
#: columns of sweep records.
RESERVED_AXIS_NAMES = frozenset(CORE_SWEEP_AXES) | {
    "name",
    "overrides",
    "scenario",
    "base",
    "fab_source",
    "lifetime_years",
    "system_volume",
    "testcase",
    "design_dir",
    "params",
    "type",
}


@dataclasses.dataclass(frozen=True)
class Axis:
    """One registered sweepable knob.

    Attributes:
        name: Axis name used in spec files, records and ``--set``.
        target: ``"system"`` or ``"config"`` — what ``apply`` transforms.
        apply: ``(obj, value) -> obj`` applier; must return a *new* object
            (both targets are frozen dataclasses), never mutate.
        parse: ``text -> value`` parser for CLI ``--set`` values; defaults
            to the YAML-ish inline grammar (scalars, ``[...]``, ``{...}``).
        validate: Optional eager validator; raises ``ValueError``/
            ``TypeError``/``KeyError`` on a bad value.  Runs at spec
            construction so a typo fails before any evaluation starts.
        description: One line for ``--list-axes`` / ``describe_axes``.
        compile_terms: Optional hook mapping a value to its contribution to
            the batch template key (mirrors the packaging models'
            ``compile_terms``).  Values with equal terms share one compiled
            template; the default is a canonical signature of the value
            itself, which is always correct.  Override only to *widen*
            sharing for values the applier treats identically.
    """

    name: str
    target: str
    apply: Callable[[Any, Any], Any]
    parse: Callable[[str], Any] = parse_inline
    validate: Optional[Callable[[Any], None]] = None
    description: str = ""
    compile_terms: Optional[Callable[[Any], Any]] = None

    def parse_text(self, text: str) -> Any:
        """Parse one CLI value and eagerly validate it."""
        value = self.parse(text)
        if self.validate is not None:
            self.validate(value)
        return value

    def template_terms(self, value: Any) -> Any:
        """The axis's contribution to a batch template key for ``value``."""
        if self.compile_terms is not None:
            return self.compile_terms(value)
        return canonical_value(value)


#: Axis name -> Axis.
_AXES: Dict[str, Axis] = {}


def canonical_value(value: Any) -> str:
    """Deterministic text form of an axis value (mapping-order insensitive).

    Used for duplicate detection, estimator/compiler cache keys and the
    default template-key contribution, so ``{"a": 1, "b": 2}`` and
    ``{"b": 2, "a": 1}`` compare — and share templates — as the identical
    configurations they are.  Numbers are canonicalised through ``float``
    (mirroring the core axes, which coerce to float at construction), so
    the numerically-equal spellings ``300`` and ``300.0`` compare equal
    instead of silently inflating a grid; integers too large for a
    lossless float round-trip keep their exact text.
    """
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, (int, float)):
        as_float = float(value)
        return repr(as_float) if as_float == value else repr(value)
    if isinstance(value, Mapping):
        return (
            "{"
            + ",".join(
                f"{key!r}:{canonical_value(value[key])}" for key in sorted(value, key=str)
            )
            + "}"
        )
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_value(item) for item in value) + "]"
    return repr(value)


def _callable_marker(func: Optional[Callable]) -> Tuple[str, str]:
    if func is None:
        return ("", "")
    return (
        getattr(func, "__module__", "") or "",
        getattr(func, "__qualname__", "") or "",
    )


def _axis_marker(axis: Axis) -> Tuple:
    """Identity of a registration that survives module re-import.

    Worker processes re-import plugin modules, recreating the axis's
    callables as new (but identical) function objects; comparing by module
    and qualified name keeps such re-registrations idempotent.
    """
    return (
        axis.name,
        axis.target,
        axis.description,
        _callable_marker(axis.apply),
        _callable_marker(axis.parse),
        _callable_marker(axis.validate),
        _callable_marker(axis.compile_terms),
    )


def register_axis(
    name: str,
    target: str,
    apply: Callable[[Any, Any], Any],
    parse: Callable[[str], Any] = parse_inline,
    validate: Optional[Callable[[Any], None]] = None,
    description: str = "",
    compile_terms: Optional[Callable[[Any], Any]] = None,
    api_version: int = PLUGIN_API_VERSION,
) -> Axis:
    """Register a sweepable axis with the global catalogue.

    Mirrors :func:`repro.packaging.registry.register_packaging`: axes may
    register from anywhere (see ``examples/custom_axis.py``); once
    registered they work in sweep specs, ``--set``, ``Session`` calls and
    the sweep engine alike.  Re-registering an identical axis (repeated
    plugin import, including worker re-import) is a no-op; conflicting
    registrations raise.

    Args:
        name: Axis name (``[a-z0-9_]``, not a reserved grid/record name).
        target: ``"system"`` or ``"config"``.
        apply: ``(obj, value) -> obj`` applier for the chosen target.
        parse: CLI text parser (default: YAML-ish inline grammar).
        validate: Optional eager value validator.
        description: One line shown by ``--list-axes``.
        compile_terms: Optional batch template-key hook (see :class:`Axis`).
        api_version: Plugin-API version the registering code was built
            against; a mismatch raises
            :class:`repro.plugins.PluginAPIVersionError`.

    Returns:
        The stored :class:`Axis`.

    Raises:
        repro.plugins.PluginAPIVersionError: incompatible ``api_version``.
        TypeError: non-callable ``apply``/``parse``/``validate``.
        ValueError: bad name, bad target, reserved name, or a conflicting
            existing registration.
    """
    check_plugin_api_version(api_version, f"axis {name!r}")
    name = str(name).strip().lower()
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(
            f"axis name must be a non-empty [a-z0-9_] identifier, got {name!r}"
        )
    if name in RESERVED_AXIS_NAMES:
        raise ValueError(
            f"axis name {name!r} is reserved (core sweep axes and record "
            f"columns cannot be shadowed); pick another name"
        )
    if target not in AXIS_TARGETS:
        raise ValueError(
            f"axis {name!r}: target must be one of {list(AXIS_TARGETS)}, "
            f"got {target!r}"
        )
    for label, func in (("apply", apply), ("parse", parse)):
        if not callable(func):
            raise TypeError(f"axis {name!r}: {label} must be callable, got {func!r}")
    for label, func in (("validate", validate), ("compile_terms", compile_terms)):
        if func is not None and not callable(func):
            raise TypeError(f"axis {name!r}: {label} must be callable, got {func!r}")
    axis = Axis(
        name=name,
        target=target,
        apply=apply,
        parse=parse,
        validate=validate,
        description=description,
        compile_terms=compile_terms,
    )
    # Check-and-insert under the shared registry lock (see
    # :data:`repro.plugins.REGISTRY_LOCK`): a long-lived server registers
    # and looks up axes from many threads, and two concurrent first
    # registrations of the same name must resolve to one stored axis.
    with REGISTRY_LOCK:
        existing = _AXES.get(name)
        if existing is not None:
            if _axis_marker(existing) == _axis_marker(axis):
                return existing  # idempotent re-registration (repeated import)
            raise ValueError(
                f"axis {name!r} is already registered (target {existing.target!r}, "
                f"applier {_callable_marker(existing.apply)[1] or existing.apply!r})"
            )
        _AXES[name] = axis
        # Ship out-of-tree axis modules to sweep workers alongside packaging
        # plugins (same snapshot, same worker re-import).
        _record_plugin_modules(
            *[
                func
                for func in (apply, parse, validate, compile_terms)
                if func is not None
            ]
        )
        return axis


def get_axis(name: str) -> Axis:
    """The axis registered under ``name``.

    An unknown name triggers one entry-point discovery pass (plugin
    packages may register axes from the same ``eco_chip.packaging``
    entry-point modules as their architectures) before the lookup fails.

    Raises:
        KeyError: unknown axis, listing the registered names.
    """
    key = str(name).strip().lower()
    axis = _AXES.get(key)
    if axis is None and load_entry_point_plugins():
        axis = _AXES.get(key)
    if axis is None:
        raise KeyError(
            f"unknown axis {name!r}; registered axes: {', '.join(sorted(_AXES)) or 'none'}"
        )
    return axis


def axis_names() -> List[str]:
    """Registered axis names, sorted."""
    load_entry_point_plugins()
    return sorted(_AXES)


def registered_axes() -> List[Axis]:
    """All registered axes, sorted by name."""
    load_entry_point_plugins()
    return [_AXES[name] for name in sorted(_AXES)]


def describe_axes() -> List[str]:
    """One human-readable line per axis (name, target, description)."""
    return [
        f"{axis.name} [{axis.target}] — {axis.description or axis.name}"
        for axis in registered_axes()
    ]


# ---------------------------------------------------------------------------
# Override mappings: {axis name: value} resolved through the registry
# ---------------------------------------------------------------------------
def validate_overrides(overrides: Optional[Mapping[str, Any]]) -> None:
    """Eagerly validate an override mapping (names and values).

    Raises:
        KeyError: an unregistered axis name.
        TypeError: ``overrides`` is not a mapping.
        ValueError: a value an axis's validator rejects (the error message
            is prefixed with the axis name).
    """
    if overrides is None:
        return
    if not isinstance(overrides, Mapping):
        raise TypeError(
            f"overrides must map axis names to values, got {overrides!r}"
        )
    for name, value in overrides.items():
        axis = get_axis(name)
        if axis.validate is not None:
            try:
                axis.validate(value)
            except (TypeError, ValueError, KeyError) as exc:
                # KeyError included: validators that delegate to lookup
                # helpers (e.g. carbon_intensity) raise it for bad names.
                raise type(exc)(f"axis {axis.name!r}: {exc}") from exc


def _sorted_items(overrides: Mapping[str, Any]) -> List[Tuple[str, Any]]:
    # Appliers run in sorted-name order on every evaluation path, so axes
    # whose appliers interact still produce bit-identical systems/configs.
    return sorted(overrides.items(), key=lambda item: str(item[0]))


def apply_system_overrides(system: Any, overrides: Optional[Mapping[str, Any]]) -> Any:
    """Apply every ``target="system"`` axis of ``overrides`` to ``system``."""
    if not overrides:
        return system
    for name, value in _sorted_items(overrides):
        axis = get_axis(name)
        if axis.target == "system":
            system = axis.apply(system, value)
    return system


def apply_config_overrides(config: Any, overrides: Optional[Mapping[str, Any]]) -> Any:
    """Apply every ``target="config"`` axis of ``overrides`` to ``config``."""
    if not overrides:
        return config
    for name, value in _sorted_items(overrides):
        axis = get_axis(name)
        if axis.target == "config":
            config = axis.apply(config, value)
    return config


def overrides_signature(
    overrides: Optional[Mapping[str, Any]],
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Hashable canonical form of a full override mapping.

    Used for duplicate detection on spec axes and as the overrides
    component of scenario group keys; ``None`` for empty mappings so
    override-free scenarios keep their pre-axis keys.
    """
    if not overrides:
        return None
    return tuple(
        (str(name), canonical_value(value)) for name, value in _sorted_items(overrides)
    )


def _target_signature(
    overrides: Optional[Mapping[str, Any]], target: str
) -> Optional[Tuple[Tuple[str, str], ...]]:
    if not overrides:
        return None
    items = tuple(
        (str(name), canonical_value(value))
        for name, value in _sorted_items(overrides)
        if get_axis(name).target == target
    )
    return items or None


def config_overrides_signature(
    overrides: Optional[Mapping[str, Any]],
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Signature of the ``config``-target subset (estimator/compiler keying)."""
    return _target_signature(overrides, "config")


def system_overrides_signature(
    overrides: Optional[Mapping[str, Any]],
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Signature of the ``system``-target subset (base-system cache keying)."""
    return _target_signature(overrides, "system")


def template_overrides_signature(
    overrides: Optional[Mapping[str, Any]],
) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """Template-key contribution of an override mapping.

    Runs each axis's ``compile_terms`` hook (default: canonical value
    signature); scenarios whose overrides produce equal terms share one
    compiled template in the batch engine.
    """
    if not overrides:
        return None
    return tuple(
        (str(name), get_axis(name).template_terms(value))
        for name, value in _sorted_items(overrides)
    )


def overrides_json(overrides: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Canonical JSON of an override mapping — the ``overrides`` record column.

    Keys are sorted so the string is deterministic; ``None`` when the
    scenario has no overrides.  Both record paths (the reference oracle's
    ``make_record`` via ``Scenario.to_record`` and the batch engine's
    ``evaluate_block``) use this helper so their bits cannot diverge.
    """
    if not overrides:
        return None
    return json.dumps(dict(overrides), sort_keys=True, default=str)
