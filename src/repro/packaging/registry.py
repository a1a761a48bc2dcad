"""Self-registering catalogue of packaging architectures.

Every packaging architecture is a (spec dataclass, model class) pair
registered under a canonical name plus optional aliases via
:func:`register_packaging`.  The built-in architectures register themselves
when their module is imported (this module imports them at the bottom, so
importing the registry is enough); out-of-tree architectures call the same
API — see ``examples/custom_packaging.py`` — and are immediately visible to
every layer driven by the registry: :func:`build_packaging_model` (scalar
estimator), :func:`spec_from_dict` (JSON configs, sweep specs and the CLI),
the batch compiler's template machinery and ``eco-chip --list-packaging``.

Spec lookup is MRO-aware: a subclass of a registered spec resolves to its
parent's model unless the subclass registered its own.

Beyond explicit ``register_packaging`` calls, architectures reach the
registry through two indirection layers:

* **Entry-point discovery** — third-party packages advertise plugin modules
  under the ``eco_chip.packaging`` entry-point group
  (:data:`ENTRY_POINT_GROUP`); :func:`load_entry_point_plugins` imports
  them, and name lookups (:func:`spec_from_dict`) plus the listing helpers
  trigger discovery lazily, so an installed package's architectures appear
  without any import statement in user code.
* **Worker auto-import** — :func:`register_packaging` records the defining
  module of every out-of-tree registration (:func:`plugin_modules`); the
  sweep engine ships those module names (and source paths) to its
  ``ProcessPoolExecutor`` workers, where :func:`import_plugin_modules`
  re-imports them so ``jobs>1`` sweeps resolve plugin architectures under
  any multiprocessing start method.

Spec dataclasses double as *parameter-axis* declarations for sweeps: every
``init`` field is a sweepable axis by default, narrowed by an optional
``SWEEP_PARAMS`` class attribute (see :func:`sweepable_params`), and
:func:`expand_packaging_params` expands a ``{"type": ..., "params": {...}}``
sweep entry into the concrete per-combination packaging configs.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import itertools
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.noc.orion import RouterSpec
from repro.packaging.base import PackagingModel, SourceLike
from repro.plugins import (
    PLUGIN_API_VERSION,
    REGISTRY_LOCK,
    check_plugin_api_version,
)
from repro.technology.nodes import TechnologyTable

#: Entry-point group scanned by :func:`load_entry_point_plugins`.
ENTRY_POINT_GROUP = "eco_chip.packaging"

#: Core scenario-grid axis names of :class:`repro.sweep.spec.SweepSpec`.
#: ``spec.py`` derives its key set from this constant, and
#: :func:`expand_packaging_params` rejects per-architecture param axes that
#: would shadow one of these names.
CORE_SWEEP_AXES = frozenset(
    {
        "testcases",
        "design_dirs",
        "nodes",
        "node_configs",
        "packaging",
        "carbon_sources",
        "lifetimes",
        "system_volumes",
    }
)


class PackagingPluginError(ImportError):
    """A packaging plugin (entry point or worker module) failed to import."""

#: Type alias for packaging-spec dataclasses.  The set is open — plugins
#: register new spec classes at runtime — so this is ``Any`` rather than a
#: closed Union; :func:`build_packaging_model` validates at call time.
PackagingSpec = Any


@dataclasses.dataclass(frozen=True)
class RegisteredPackaging:
    """One registered packaging architecture.

    Attributes:
        name: Canonical architecture name (``"rdl_fanout"``, ...).
        spec_cls: User-facing configuration dataclass.
        model_cls: :class:`PackagingModel` subclass evaluating the spec.
        aliases: Alternative names accepted by :func:`spec_from_dict`.
    """

    name: str
    spec_cls: type
    model_cls: Type[PackagingModel]
    aliases: Tuple[str, ...] = ()


#: Canonical name -> registration entry.
_ENTRIES: Dict[str, RegisteredPackaging] = {}

#: Defining module -> source file of out-of-tree registrations, in
#: registration order.  Shipped to sweep workers (see
#: :func:`plugin_modules` / :func:`import_plugin_modules`).
_PLUGIN_MODULES: Dict[str, Optional[str]] = {}

#: One-shot guard of :func:`load_entry_point_plugins`.
_entry_points_loaded = False

#: Spec class -> model class (exact classes; lookups walk the spec's MRO).
_MODEL_FOR_SPEC: Dict[type, Type[PackagingModel]] = {}

#: JSON / CLI name or alias -> spec class.  Maintained by
#: :func:`register_packaging`; kept as a plain dict for backwards
#: compatibility with callers that iterate the known names.
PACKAGING_SPECS: Dict[str, type] = {}

#: Name or alias -> canonical architecture name.
_CANONICAL_NAMES: Dict[str, str] = {}


def _normalise_name(name: str) -> str:
    return str(name).strip().lower()


def canonical_packaging_name(name: Any) -> str:
    """Canonical architecture name behind any registered name or alias.

    Unregistered names pass through normalised (lower-cased, stripped), so
    the function is safe to use on arbitrary config values — e.g. for
    duplicate detection on a sweep spec's packaging axis, where ``"rdl"``
    and ``"rdl_fanout"`` must compare equal.
    """
    normalised = _normalise_name(name)
    return _CANONICAL_NAMES.get(normalised, normalised)


def register_packaging(
    name: str,
    spec_cls: type,
    model_cls: Type[PackagingModel],
    aliases: Sequence[str] = (),
    api_version: int = PLUGIN_API_VERSION,
) -> RegisteredPackaging:
    """Register a packaging architecture with the global catalogue.

    Architectures may register from anywhere (including outside
    ``repro.packaging``); once registered they work with the scalar
    estimator, the batch fast path, sweep specs and the CLI alike.
    Re-registering the identical (name, spec, model, aliases) entry is a
    no-op, so plugin modules can be imported repeatedly; conflicting
    registrations raise.

    Args:
        name: Canonical architecture name (used in configs and listings).
        spec_cls: Configuration dataclass; ``spec_from_dict`` passes the
            remaining config keys to its constructor.
        model_cls: :class:`PackagingModel` subclass; must implement
            ``evaluate`` and ``compile_terms`` (checked here, so a model
            the batch engine cannot compile fails at registration).
        aliases: Additional accepted spelling(s) of the name.
        api_version: Plugin-API version the registering code was built
            against (:data:`repro.plugins.PLUGIN_API_VERSION`); a mismatch
            raises :class:`repro.plugins.PluginAPIVersionError` instead of
            failing obscurely later.

    Returns:
        The stored :class:`RegisteredPackaging` entry.

    Raises:
        repro.plugins.PluginAPIVersionError: incompatible ``api_version``.
        TypeError: when ``model_cls`` is not a :class:`PackagingModel`
            subclass or ``spec_cls`` is not a class.
        ValueError: when the name, an alias or the spec class is already
            registered to a different architecture, or when the spec's
            ``SWEEP_PARAMS`` declaration names unknown fields.
    """
    with REGISTRY_LOCK:
        return _register_packaging_locked(
            name, spec_cls, model_cls, aliases, api_version
        )


def _register_packaging_locked(
    name: str,
    spec_cls: type,
    model_cls: Type[PackagingModel],
    aliases: Sequence[str],
    api_version: int,
) -> RegisteredPackaging:
    check_plugin_api_version(api_version, f"packaging architecture {name!r}")
    if not isinstance(spec_cls, type):
        raise TypeError(f"spec_cls must be a class, got {spec_cls!r}")
    if not (isinstance(model_cls, type) and issubclass(model_cls, PackagingModel)):
        raise TypeError(
            f"model_cls must be a PackagingModel subclass, got {model_cls!r}"
        )
    if model_cls.compile_terms is PackagingModel.compile_terms:
        raise TypeError(
            f"packaging model {model_cls.__name__} must implement "
            f"compile_terms(): every sweep evaluates through the compiled "
            f"batch engine"
        )
    canonical = _normalise_name(name)
    if not canonical:
        raise ValueError("packaging name must be non-empty")
    _validate_sweep_params(canonical, spec_cls)
    entry = RegisteredPackaging(
        name=canonical,
        spec_cls=spec_cls,
        model_cls=model_cls,
        aliases=tuple(dict.fromkeys(_normalise_name(alias) for alias in aliases)),
    )
    existing = _ENTRIES.get(canonical)
    if existing == entry:
        return existing  # idempotent re-registration (repeated plugin import)
    if existing is not None:
        raise ValueError(
            f"packaging architecture {canonical!r} is already registered "
            f"(spec {existing.spec_cls.__name__}, model {existing.model_cls.__name__})"
        )
    registered_model = _MODEL_FOR_SPEC.get(spec_cls)
    if registered_model is not None and registered_model is not model_cls:
        raise ValueError(
            f"spec class {spec_cls.__name__} is already registered to "
            f"{registered_model.__name__}"
        )
    for label in (canonical,) + entry.aliases:
        bound = PACKAGING_SPECS.get(label)
        if bound is not None and bound is not spec_cls:
            raise ValueError(
                f"packaging name {label!r} is already registered to "
                f"{bound.__name__}"
            )
    _ENTRIES[canonical] = entry
    _MODEL_FOR_SPEC[spec_cls] = model_cls
    for label in (canonical,) + entry.aliases:
        PACKAGING_SPECS[label] = spec_cls
        _CANONICAL_NAMES[label] = canonical
    _record_plugin_modules(spec_cls, model_cls)
    return entry


def _validate_sweep_params(name: str, spec_cls: type) -> None:
    """Fail registration fast when ``SWEEP_PARAMS`` names unknown fields."""
    declared = getattr(spec_cls, "SWEEP_PARAMS", None)
    if declared is None:
        return
    if isinstance(declared, str) or not isinstance(declared, (tuple, list)):
        raise ValueError(
            f"SWEEP_PARAMS of spec class {spec_cls.__name__} (architecture "
            f"{name!r}) must be a tuple of field names, got {declared!r}"
        )
    if not dataclasses.is_dataclass(spec_cls):
        raise ValueError(
            f"spec class {spec_cls.__name__} (architecture {name!r}) declares "
            f"SWEEP_PARAMS but is not a dataclass"
        )
    fields = {field.name for field in dataclasses.fields(spec_cls) if field.init}
    unknown = [param for param in declared if param not in fields]
    if unknown:
        raise ValueError(
            f"SWEEP_PARAMS of spec class {spec_cls.__name__} (architecture "
            f"{name!r}) names unknown field(s) {unknown}; dataclass fields: "
            f"{sorted(fields)}"
        )


def _record_plugin_modules(*classes: type) -> None:
    """Remember the defining modules of out-of-tree registrations.

    Modules inside ``repro`` are always importable in worker processes and
    are skipped; ``__main__`` cannot be re-imported meaningfully and is
    skipped too (multiprocessing already handles the main module).
    """
    with REGISTRY_LOCK:
        for cls in classes:
            module = getattr(cls, "__module__", "") or ""
            if module in ("", "__main__", "builtins"):
                continue
            if module == "repro" or module.startswith("repro."):
                continue
            if module in _PLUGIN_MODULES:
                continue
            source = getattr(sys.modules.get(module), "__file__", None)
            _PLUGIN_MODULES[module] = str(source) if source else None


def plugin_modules() -> Tuple[Tuple[str, Optional[str]], ...]:
    """``(module name, source file)`` of every out-of-tree registration.

    The sweep engine passes this snapshot to its worker-pool initializers so
    workers can re-register the plugins before evaluating scenarios.
    """
    return tuple(_PLUGIN_MODULES.items())


def import_plugin_modules(
    modules: Sequence[Tuple[str, Optional[str]]],
) -> List[str]:
    """Import plugin modules recorded by :func:`plugin_modules`.

    Used by worker-process initializers: importing the module re-runs its
    ``register_packaging`` call(s), making out-of-tree architectures
    resolvable in the worker.  Modules already imported are skipped; a
    module that cannot be imported by name falls back to loading its
    recorded source file under that name (covers plugins loaded from files
    outside ``sys.path``, e.g. ``examples/custom_packaging.py``).

    Returns:
        Names of the modules actually (re-)imported.

    Raises:
        PackagingPluginError: when a module can be imported neither by name
            nor from its recorded source file.
    """
    imported: List[str] = []
    with REGISTRY_LOCK:
        for name, source in modules:
            if name in sys.modules:
                continue
            try:
                importlib.import_module(name)
                imported.append(name)
                continue
            except ImportError:
                pass
            if not source:
                raise PackagingPluginError(
                    f"cannot import packaging plugin module {name!r} in this "
                    f"process: not importable by name and no source file was "
                    f"recorded at registration time"
                )
            file_spec = importlib.util.spec_from_file_location(name, source)
            if file_spec is None or file_spec.loader is None:
                raise PackagingPluginError(
                    f"cannot load packaging plugin module {name!r} from "
                    f"{source!r}: no import spec could be built"
                )
            module = importlib.util.module_from_spec(file_spec)
            sys.modules[name] = module  # registered dataclasses resolve __module__
            try:
                file_spec.loader.exec_module(module)
            except BaseException as exc:
                sys.modules.pop(name, None)
                raise PackagingPluginError(
                    f"packaging plugin module {name!r} ({source}) raised during "
                    f"import: {type(exc).__name__}: {exc}"
                ) from exc
            imported.append(name)
    return imported


def _iter_packaging_entry_points() -> List[Any]:
    """Entry points advertised under :data:`ENTRY_POINT_GROUP`.

    Isolated for testability (tests monkeypatch this) and for the Python
    3.9 ``entry_points()`` dict-shaped return value.
    """
    from importlib import metadata

    try:
        return list(metadata.entry_points(group=ENTRY_POINT_GROUP))
    except TypeError:  # pragma: no cover - Python 3.9: no group= kwarg
        return list(metadata.entry_points().get(ENTRY_POINT_GROUP, []))


def load_entry_point_plugins(refresh: bool = False) -> List[str]:
    """Import every ``eco_chip.packaging`` entry point (once per process).

    Third-party packages advertise their architecture modules as::

        [project.entry-points."eco_chip.packaging"]
        my_arch = "my_package.eco_chip_plugin"

    Importing the advertised module runs its ``register_packaging`` calls.
    Discovery is lazy: it runs the first time a registry *name lookup*
    misses or a listing helper is called, so plain ``import repro`` never
    pays the scan (and never fails because an unrelated installed package
    ships a broken plugin).

    Args:
        refresh: Re-scan even if discovery already ran in this process.

    Returns:
        The entry-point names loaded by *this* call (empty when discovery
        already ran and ``refresh`` is false).

    Raises:
        PackagingPluginError: when an advertised entry point raises on
            import; the message names every failing entry point, its target
            and the original error.  Healthy entry points are still loaded
            first (a broken third-party plugin cannot block an unrelated
            working one), and the error is raised once — later calls return
            normally with the healthy plugins registered.
    """
    global _entry_points_loaded
    # The loaded-guard check-and-set and the imports themselves run under
    # the shared registry lock: without it a second thread could observe
    # the guard already set and proceed to a lookup while the first thread
    # is still importing plugins (a half-populated registry).
    with REGISTRY_LOCK:
        if _entry_points_loaded and not refresh:
            return []
        _entry_points_loaded = True
        loaded: List[str] = []
        failures: List[Tuple[Any, Exception]] = []
        for entry_point in _iter_packaging_entry_points():
            try:
                entry_point.load()
            except Exception as exc:
                failures.append((entry_point, exc))
                continue
            loaded.append(entry_point.name)
        if failures:
            details = "; ".join(
                f"{entry_point.name!r} ({entry_point.value}): "
                f"{type(exc).__name__}: {exc}"
                for entry_point, exc in failures
            )
            error = PackagingPluginError(
                f"{len(failures)} packaging plugin entry point(s) in group "
                f"{ENTRY_POINT_GROUP!r} raised during import: {details}"
            )
            raise error from failures[0][1]
        return loaded


def registered_packaging() -> List[RegisteredPackaging]:
    """All registered architectures, sorted by canonical name."""
    load_entry_point_plugins()
    return [entry for _, entry in sorted(_ENTRIES.items())]


def packaging_names(include_aliases: bool = False) -> List[str]:
    """Registered architecture names (optionally with aliases), sorted."""
    load_entry_point_plugins()
    if include_aliases:
        return sorted(PACKAGING_SPECS)
    return sorted(_ENTRIES)


def describe_packaging() -> List[str]:
    """One human-readable line per architecture (name, aliases, spec, params).

    The trailing ``params:`` segment lists the architecture's sweepable
    parameter axes with their defaults — the fields a sweep spec may put
    under a packaging entry's ``params`` key.
    """
    lines = []
    for entry in registered_packaging():
        alias_text = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        params = sweepable_params(entry.spec_cls)
        if params:
            rendered = []
            for param, field in params.items():
                if field.default is not dataclasses.MISSING:
                    rendered.append(f"{param}={field.default!r}")
                else:
                    rendered.append(param)
            param_text = f" — params: {', '.join(rendered)}"
        else:
            param_text = ""
        lines.append(
            f"{entry.name}{alias_text} — {entry.spec_cls.__name__}{param_text}"
        )
    return lines


def _known_architectures() -> str:
    """Registry-derived summary used in lookup-error messages."""
    parts = []
    for entry in registered_packaging():
        if entry.aliases:
            parts.append(f"{entry.name} (aliases: {', '.join(entry.aliases)})")
        else:
            parts.append(entry.name)
    return "; ".join(parts)


def model_class_for_spec(spec_type: type) -> Optional[Type[PackagingModel]]:
    """Model class registered for ``spec_type``, walking its MRO.

    Subclassed specs resolve to the nearest registered ancestor, so users
    can specialise a spec dataclass (extra fields, different defaults)
    without re-registering; returns ``None`` for unregistered types.
    """
    for klass in spec_type.__mro__:
        model_cls = _MODEL_FOR_SPEC.get(klass)
        if model_cls is not None:
            return model_cls
    return None


def is_monolithic_spec(spec: PackagingSpec) -> bool:
    """True when ``spec`` resolves to a monolithic-baseline architecture."""
    model_cls = model_class_for_spec(type(spec))
    return bool(model_cls is not None and model_cls.is_monolithic)


def build_packaging_model(
    spec: PackagingSpec,
    table: Optional[TechnologyTable] = None,
    package_carbon_source: SourceLike = "coal",
    router_spec: Optional[RouterSpec] = None,
) -> PackagingModel:
    """Construct the packaging model matching ``spec``.

    Raises:
        TypeError: if ``spec``'s type (or any of its base classes) is not a
            registered spec dataclass.
    """
    model_cls = model_class_for_spec(type(spec))
    if model_cls is None:
        raise TypeError(
            f"unsupported packaging spec type: {type(spec).__name__}; "
            f"registered architectures: {_known_architectures()}"
        )
    return model_cls(
        spec=spec,
        table=table,
        package_carbon_source=package_carbon_source,
        router_spec=router_spec,
    )


def _spec_class_for(name: str) -> type:
    """Spec class registered under ``name``, running entry-point discovery
    on a miss before giving up."""
    spec_cls = PACKAGING_SPECS.get(name)
    if spec_cls is None and load_entry_point_plugins():
        spec_cls = PACKAGING_SPECS.get(name)
    if spec_cls is None:
        raise KeyError(
            f"unknown packaging type {name!r}; registered architectures: "
            f"{_known_architectures()}"
        )
    return spec_cls


def spec_from_dict(config: Dict[str, Any]) -> PackagingSpec:
    """Build a packaging spec from a JSON-style dictionary.

    The dictionary must contain a ``"type"`` key naming the architecture
    (any registered name or alias); the remaining keys are passed to the
    spec constructor.  An unknown name triggers one entry-point discovery
    pass (:func:`load_entry_point_plugins`) before the lookup fails.

    Example::

        spec_from_dict({"type": "rdl_fanout", "layers": 6, "technology_nm": 65})
    """
    if "type" not in config:
        raise KeyError("packaging configuration needs a 'type' key")
    params = dict(config)
    name = _normalise_name(params.pop("type"))
    spec_cls = _spec_class_for(name)
    return spec_cls(**params)


# ---------------------------------------------------------------------------
# Per-architecture parameter axes
# ---------------------------------------------------------------------------
def sweepable_params(arch: Any) -> Dict[str, dataclasses.Field]:
    """Sweepable parameter axes of an architecture, as ``name -> Field``.

    ``arch`` is a registered name/alias or a spec class.  Every ``init``
    field of the spec dataclass is sweepable by default; a spec narrows the
    set by declaring a ``SWEEP_PARAMS`` tuple of field names (validated at
    registration time).  Non-dataclass specs have no sweepable params.

    The mapping preserves declaration order, which is also the axis order
    :func:`expand_packaging_params` expands in.
    """
    if isinstance(arch, type):
        spec_cls = arch
    else:
        spec_cls = _spec_class_for(_normalise_name(arch))
    if not dataclasses.is_dataclass(spec_cls):
        return {}
    fields = {
        field.name: field for field in dataclasses.fields(spec_cls) if field.init
    }
    declared = getattr(spec_cls, "SWEEP_PARAMS", None)
    if declared is None:
        return fields
    return {name: fields[name] for name in declared if name in fields}


def expand_packaging_params(
    config: Mapping[str, Any],
    reserved_axes: frozenset = frozenset(),
) -> List[Dict[str, Any]]:
    """Expand a packaging config's ``params`` axes into concrete configs.

    A sweep-spec packaging entry may declare per-architecture parameter
    axes under a ``params`` key::

        {"type": "silicon_bridge", "params": {"bridge_range_mm": [2.0, 4.0]}}

    which expands into one concrete config per value combination (cartesian
    product over the axes, in declaration order)::

        [{"type": "silicon_bridge", "bridge_range_mm": 2.0},
         {"type": "silicon_bridge", "bridge_range_mm": 4.0}]

    Scalars are promoted to one-element axes; configs without ``params``
    pass through as a one-element list.  Every axis is validated against
    :func:`sweepable_params` of the named architecture.

    Args:
        config: Packaging config dict (must contain ``"type"``).
        reserved_axes: Axis names the caller reserves (the sweep spec passes
            :data:`CORE_SWEEP_AXES`); a param axis with one of these names
            is rejected as a collision.

    Raises:
        KeyError: unknown architecture or missing ``"type"`` key.
        TypeError: ``params`` is not a mapping.
        ValueError: unknown/reserved/duplicate-valued/empty param axes, or
            a param that is both fixed and swept.
    """
    if "type" not in config:
        raise KeyError("packaging configuration needs a 'type' key")
    base = {key: value for key, value in config.items() if key != "params"}
    params = config.get("params")
    if params is None:
        return [base]
    if not isinstance(params, Mapping):
        raise TypeError(
            f"packaging 'params' must map param names to value lists, "
            f"got {params!r}"
        )
    name = _normalise_name(base["type"])
    spec_cls = _spec_class_for(name)
    allowed = sweepable_params(spec_cls)
    axes: List[Tuple[str, List[Any]]] = []
    for param, values in params.items():
        if param in reserved_axes:
            raise ValueError(
                f"param axis {param!r} of packaging architecture {name!r} "
                f"collides with the core sweep axis of the same name; set it "
                f"as a fixed value ({{'type': {name!r}, {param!r}: ...}}) or "
                f"rename the spec field"
            )
        if param not in allowed:
            known = ", ".join(allowed) if allowed else "none"
            raise ValueError(
                f"unknown sweep param {param!r} for packaging architecture "
                f"{name!r} (spec {spec_cls.__name__}); sweepable params: "
                f"{known}"
            )
        if param in base:
            raise ValueError(
                f"param {param!r} of packaging architecture {name!r} is both "
                f"fixed ({base[param]!r}) and swept; drop one of the two"
            )
        if isinstance(values, (str, bytes)) or not isinstance(
            values, (list, tuple)
        ):
            values = [values]
        values = list(values)
        if not values:
            raise ValueError(
                f"sweep param {param!r} of packaging architecture {name!r} "
                f"has no values"
            )
        seen = set()
        for value in values:
            marker = repr(value)
            if marker in seen:
                raise ValueError(
                    f"duplicate value {value!r} in sweep param axis "
                    f"{param!r} of packaging architecture {name!r}"
                )
            seen.add(marker)
        axes.append((param, values))
    expanded: List[Dict[str, Any]] = []
    for combo in itertools.product(*(values for _, values in axes)):
        entry = dict(base)
        for (param, _), value in zip(axes, combo):
            entry[param] = value
        expanded.append(entry)
    return expanded


# ---------------------------------------------------------------------------
# Built-in architectures self-register when their module is imported; the
# imports below guarantee the catalogue is populated as soon as anyone
# imports the registry.  (Import order is circular-import safe: the model
# modules only need register_packaging, which is defined above.)
# ---------------------------------------------------------------------------
from repro.packaging import bridge as _bridge  # noqa: E402,F401
from repro.packaging import interposer as _interposer  # noqa: E402,F401
from repro.packaging import monolithic as _monolithic  # noqa: E402,F401
from repro.packaging import rdl as _rdl  # noqa: E402,F401
from repro.packaging import threed as _threed  # noqa: E402,F401
