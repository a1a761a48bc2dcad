"""Declarative sweep specifications and their cartesian expansion.

A :class:`SweepSpec` describes a grid of scenarios over the knobs the paper
sweeps in its experiments: technology-node assignments (Fig. 7), packaging
architectures (Figs. 9, 11), fab energy sources (Table I's 30–700 g/kWh
range), lifetimes (Fig. 4) and manufacturing volumes (Fig. 12), applied to
built-in testcases or on-disk design directories.  Specs are plain frozen
dataclasses, buildable from JSON/YAML-ish dictionaries or files.  A spec
enumerates its grid as :class:`TemplateGroup` s (the scenarios of one
compiled template, one row tuple each), which
:class:`repro.sweep.engine.SweepEngine` evaluates in parallel, or expands
into a flat list of picklable :class:`Scenario` objects.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.axes import (
    apply_system_overrides,
    axis_names,
    canonical_value,
    config_overrides_signature,
    get_axis,
    overrides_json,
    system_overrides_signature,
    template_overrides_signature,
)
from repro.core.disaggregation import all_node_configurations
from repro.core.system import ChipletSystem
from repro.io.loaders import load_design_directory
from repro.packaging.registry import (
    CORE_SWEEP_AXES,
    canonical_packaging_name,
    expand_packaging_params,
    spec_from_dict,
)
from repro.technology.carbon_sources import carbon_intensity
from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, TechnologyTable
from repro.testcases.registry import get_testcase, testcase_key
from repro.yamlish import parse_yamlish

PathLike = Union[str, Path]

#: Base-system kinds a scenario can reference.
BASE_TESTCASE = "testcase"
BASE_DESIGN_DIR = "design_dir"


def packaging_signature(packaging: Optional[Mapping[str, Any]]) -> Optional[Tuple]:
    """Hashable canonical form of a scenario packaging-override dict.

    Used as the packaging component of batch-template keys — two packaging
    dicts with the same signature compile to (and share) one template — and
    for duplicate detection on the spec's packaging axis, so parameterised
    specs (dicts that differ only in a ``params``-expanded field value) stay
    distinct.  The ``type`` value is resolved to its canonical architecture
    name, so alias spellings (``"rdl"`` vs ``"rdl_fanout"``) compare — and
    share templates — like the identical configs they are.
    """
    if packaging is None:
        return None
    return tuple(
        sorted(
            (
                str(key),
                repr(canonical_packaging_name(value)) if key == "type" else repr(value),
            )
            for key, value in packaging.items()
        )
    )


def packaging_params_json(packaging: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Canonical JSON of a packaging override's non-``type`` keys.

    This is the ``packaging_params`` record column: it distinguishes rows of
    a per-architecture parameter-axis sweep that share an architecture name.
    Keys are sorted so the string is deterministic; ``None`` when the
    scenario has no packaging override or only a ``type`` key.  Both record
    paths (:func:`repro.sweep.engine.make_record` and the batch engine's
    ``evaluate_block``) call this helper so their bits cannot diverge.
    """
    if packaging is None:
        return None
    params = {key: packaging[key] for key in packaging if key != "type"}
    if not params:
        return None
    return json.dumps(params, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Scenario: one fully-resolved point of the grid
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Scenario:
    """One expanded scenario: a base system plus the knob overrides.

    Scenarios are deliberately *descriptions*, not resolved systems: they
    (and the :class:`TemplateGroup` s the engine ships instead) are tiny
    and picklable, and worker processes rebuild the (much larger) system
    objects locally.

    Attributes:
        index: Position in the expanded grid (stable across runs).
        base_kind: ``"testcase"`` or ``"design_dir"``.
        base_ref: Testcase name or design-directory path.
        nodes: Node assignment for the chiplets (``None`` keeps the base).
        packaging: Packaging configuration dict (``None`` keeps the base).
        fab_source: Fab/packaging/design energy source (``None`` keeps the
            engine default).
        lifetime_years: Use-phase lifetime override.
        system_volume: Manufacturing volume ``NS`` override.
        overrides: Registered-axis overrides (``{axis name: value}``, see
            :mod:`repro.axes`); ``None`` keeps every axis at its default.
            System-target axes are applied by :meth:`build_system`,
            config-target axes by the estimator configuration.
    """

    index: int
    base_kind: str
    base_ref: str
    nodes: Optional[Tuple[float, ...]] = None
    packaging: Optional[Mapping[str, Any]] = None
    fab_source: Optional[str] = None
    lifetime_years: Optional[float] = None
    system_volume: Optional[float] = None
    overrides: Optional[Mapping[str, Any]] = None

    @property
    def label(self) -> str:
        """Compact human-readable identifier of the scenario.

        Override axes are rendered ``name=value``, sorted by axis name, so
        labels (and therefore logs and resume diffs) are deterministic
        regardless of the mapping's insertion order.
        """
        parts = [self.base_ref]
        if self.nodes is not None:
            parts.append("(" + ",".join(f"{n:g}" for n in self.nodes) + ")")
        if self.packaging is not None:
            parts.append(str(self.packaging.get("type", "?")))
        if self.fab_source is not None:
            parts.append(self.fab_source)
        if self.lifetime_years is not None:
            parts.append(f"{self.lifetime_years:g}y")
        if self.system_volume is not None:
            parts.append(f"NS={self.system_volume:g}")
        if self.overrides:
            for name in sorted(self.overrides, key=str):
                parts.append(f"{name}={format_axis_value(self.overrides[name])}")
        return "/".join(parts)

    def build_system(self, base: Optional[ChipletSystem] = None) -> ChipletSystem:
        """Resolve the scenario into a concrete :class:`ChipletSystem`.

        System-target axis overrides are applied to the base *first* —
        the same order the batch template compiler uses — and the legacy
        knobs (nodes, packaging, volume, lifetime) after, so the batch
        engine and the reference oracle build bit-identical systems.

        Args:
            base: Pre-resolved base system (callers that evaluate many
                scenarios of the same base pass it to avoid re-loading).
        """
        system = base if base is not None else resolve_base(self.base_kind, self.base_ref)
        if self.overrides:
            system = apply_system_overrides(system, self.overrides)
        if self.nodes is not None:
            system = system.with_nodes(*self.nodes)
        if self.packaging is not None:
            system = system.with_packaging(spec_from_dict(dict(self.packaging)))
        if self.system_volume is not None:
            system = system.with_volume(self.system_volume)
        if self.lifetime_years is not None:
            system = system.with_operating(
                dataclasses.replace(system.operating, lifetime_years=self.lifetime_years)
            )
        return system

    def to_record(self) -> Dict[str, Any]:
        """Flat JSON-friendly dictionary of the scenario parameters."""
        return {
            "scenario": self.index,
            "base": self.base_ref,
            "nodes": list(self.nodes) if self.nodes is not None else None,
            "packaging": (
                str(self.packaging.get("type", "?")) if self.packaging is not None else None
            ),
            "packaging_params": packaging_params_json(self.packaging),
            "fab_source": self.fab_source,
            "lifetime_years": self.lifetime_years,
            "system_volume": self.system_volume,
            "overrides": overrides_json(self.overrides),
        }


def format_axis_value(value: Any) -> str:
    """Compact deterministic rendering of one axis value for labels."""
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, Mapping):
        inner = ",".join(
            f"{key}:{format_axis_value(value[key])}" for key in sorted(value, key=str)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(format_axis_value(item) for item in value) + "]"
    return str(value)


#: One row of a template group: ``(index, fab_source, lifetime_years, system_volume)``.
GroupRow = Tuple[int, Optional[str], Optional[float], Optional[float]]


class GroupKey(NamedTuple):
    """The signatures of a template group's packaging and override dicts.

    ``packaging`` and ``template`` key the template caches, ``system`` the
    geometry cache and ``config`` the config context; ``packaging_params``
    and ``overrides`` are record columns.
    """

    packaging: Optional[Tuple]
    packaging_params: Optional[str]
    config: Optional[Tuple]
    system: Optional[Tuple]
    template: Optional[Tuple]
    overrides: Optional[str]

    @classmethod
    def of(cls, packaging: Optional[Mapping], overrides: Optional[Mapping]) -> "GroupKey":
        return cls(
            packaging_signature(packaging),
            packaging_params_json(packaging),
            config_overrides_signature(overrides),
            system_overrides_signature(overrides),
            template_overrides_signature(overrides),
            overrides_json(overrides),
        )


class TemplateGroup(NamedTuple):
    """Scenarios sharing one compiled template: its fields once, a row each.

    The unit the batch engine compiles, evaluates and ships to workers.
    ``key`` holds the signatures of ``packaging`` and ``overrides``.
    ``row_dicts`` holds per-row ``(packaging, overrides)`` pairs when the
    scenarios' dicts are equal but not shared objects, else ``None``.
    """

    base_kind: str
    base_ref: str
    nodes: Optional[Tuple[float, ...]]
    packaging: Optional[Mapping[str, Any]]
    overrides: Optional[Mapping[str, Any]]
    rows: Sequence[GroupRow]
    key: GroupKey
    row_dicts: Optional[Sequence[Tuple[Any, Any]]] = None

    @classmethod
    def of(cls, scenarios: Sequence[Scenario], key: Optional[GroupKey] = None) -> "TemplateGroup":
        """The group of ``scenarios``, which must share one template key."""
        first = scenarios[0]
        rows = [(s.index, s.fab_source, s.lifetime_years, s.system_volume) for s in scenarios]
        dicts = [(s.packaging, s.overrides) for s in scenarios]
        shared = all(p is first.packaging and o is first.overrides for p, o in dicts)
        return cls(
            first.base_kind, first.base_ref, first.nodes, first.packaging, first.overrides,
            rows, key if key is not None else GroupKey.of(first.packaging, first.overrides),
            None if shared else dicts,
        )

    def scenarios(self) -> List[Scenario]:
        """One :class:`Scenario` per row (the containment path's unit)."""
        dicts = self.row_dicts or itertools.repeat((self.packaging, self.overrides))
        return [
            Scenario(
                index, self.base_kind, self.base_ref, self.nodes, packaging,
                source, lifetime, volume, overrides,
            )
            for (index, source, lifetime, volume), (packaging, overrides) in zip(
                self.rows, dicts
            )
        ]


def resolve_base(base_kind: str, base_ref: str) -> ChipletSystem:
    """Build the base system a scenario refers to."""
    if base_kind == BASE_TESTCASE:
        return get_testcase(base_ref)
    if base_kind == BASE_DESIGN_DIR:
        return load_design_directory(base_ref).system
    raise ValueError(f"unknown scenario base kind {base_kind!r}")


# ---------------------------------------------------------------------------
# SweepSpec: the declarative grid
# ---------------------------------------------------------------------------
#: Accepted spec-dictionary keys: the core sweep axes (single-sourced from
#: the packaging registry, which also rejects per-architecture param axes
#: that shadow one of them) plus the spec name.
_SPEC_KEYS = frozenset(CORE_SWEEP_AXES) | {"name"}


def _reject_duplicate_axis_values(
    axis: str, values: Sequence[Any], key: Optional[Any] = None
) -> None:
    """Raise when a sweep axis lists the same value twice.

    Duplicate values silently inflate the grid (every downstream summary —
    counts, bests, Pareto fronts — double-weights the duplicated point), so
    they are rejected eagerly at spec construction.
    """
    seen = set()
    for value in values:
        marker = key(value) if key is not None else value
        if marker in seen:
            raise ValueError(
                f"duplicate value {value!r} in sweep axis {axis!r}; duplicate "
                f"axis values inflate the scenario grid and skew sweep "
                f"summaries — list each value once"
            )
        seen.add(marker)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative scenario grid (cartesian product of the axes).

    Every axis is optional; an empty axis means "keep the base system's
    value".  ``nodes`` expands into every per-chiplet assignment
    (``len(nodes) ** chiplet_count`` configurations per base system) while
    ``node_configs`` lists explicit assignments; the two are mutually
    exclusive.

    Attributes:
        name: Spec name, recorded in result rows.
        testcases: Built-in testcase names to use as base systems.
        design_dirs: ECO-CHIP design directories to use as base systems.
        nodes: Node choices for mix-and-match expansion.
        node_configs: Explicit node assignments (tuples, one per chiplet).
        packaging: Packaging configurations (dicts with a ``type`` key).  An
            entry may declare per-architecture parameter axes under a
            ``params`` key (``{"type": "bridge", "params":
            {"bridge_range_mm": [2, 4]}}``); construction expands such
            entries into one concrete config per value combination, so the
            stored axis always holds concrete configs.
        carbon_sources: Fab energy sources to sweep.
        lifetimes: Lifetimes (years) to sweep.
        system_volumes: Manufacturing volumes ``NS`` to sweep.
        overrides: Registered-axis value lists (:mod:`repro.axes`), stored
            canonically as ``((axis name, (values...)), ...)`` sorted by
            axis name.  Construction accepts a mapping too.  Any spec-
            dictionary key that is not a core axis resolves through the
            axis registry, so ``{"wafer_diameter_mm": [300, 450]}`` sweeps
            the wafer-diameter axis with no spec-schema change.
    """

    name: str = "sweep"
    testcases: Tuple[str, ...] = ()
    design_dirs: Tuple[str, ...] = ()
    nodes: Tuple[float, ...] = ()
    node_configs: Tuple[Tuple[float, ...], ...] = ()
    packaging: Tuple[Mapping[str, Any], ...] = ()
    carbon_sources: Tuple[str, ...] = ()
    lifetimes: Tuple[float, ...] = ()
    system_volumes: Tuple[float, ...] = ()
    overrides: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.testcases and not self.design_dirs:
            raise ValueError("a sweep spec needs at least one testcase or design_dir")
        if self.nodes and self.node_configs:
            raise ValueError("'nodes' and 'node_configs' are mutually exclusive")
        # A boolean (JSON true) is an int to Python, but not a lifetime.
        for value in self.lifetimes:
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"lifetimes must be positive and finite, got {value}")
        for value in self.system_volumes:
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"system volumes must be positive and finite, got {value}")
        # Per-architecture parameter axes (packaging entries with a "params"
        # key) expand into one concrete config per value combination; the
        # registry validates axis names against the spec dataclass and
        # rejects collisions with the core sweep axes.
        expanded: List[Mapping[str, Any]] = []
        for config in self.packaging:
            expanded.extend(
                expand_packaging_params(config, reserved_axes=CORE_SWEEP_AXES)
            )
        object.__setattr__(self, "packaging", tuple(expanded))
        for config in self.packaging:
            spec_from_dict(dict(config))  # validate eagerly: raises KeyError/TypeError
        for source in self.carbon_sources:
            carbon_intensity(source)  # validate eagerly
        # Registered-axis override lists: normalise to a name-sorted tuple
        # of (axis, values) pairs, resolve every name through the registry
        # (unknown names fail here, not mid-sweep) and validate each value
        # with the axis's own validator.
        raw_overrides = self.overrides
        if isinstance(raw_overrides, Mapping):
            items = list(raw_overrides.items())
        else:
            items = [(name, values) for name, values in raw_overrides]
        normalised: List[Tuple[str, Tuple[Any, ...]]] = []
        for name, values in sorted(items, key=lambda item: str(item[0])):
            axis = get_axis(name)  # raises KeyError for unknown axes
            if isinstance(values, (str, bytes, Mapping)) or not isinstance(
                values, (list, tuple)
            ):
                values = (values,)
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {axis.name!r} has no values to sweep")
            for value in values:
                if axis.validate is not None:
                    try:
                        axis.validate(value)
                    except (TypeError, ValueError, KeyError) as exc:
                        raise type(exc)(f"axis {axis.name!r}: {exc}") from exc
            normalised.append((axis.name, values))
        seen_names = [name for name, _ in normalised]
        if len(set(seen_names)) != len(seen_names):
            raise ValueError(f"duplicate override axes in spec: {seen_names}")
        object.__setattr__(self, "overrides", tuple(normalised))
        # No axis may list a value twice (duplicates inflate the grid).
        _reject_duplicate_axis_values("testcases", self.testcases)
        _reject_duplicate_axis_values("design_dirs", self.design_dirs)
        _reject_duplicate_axis_values("nodes", self.nodes)
        _reject_duplicate_axis_values("node_configs", self.node_configs)
        _reject_duplicate_axis_values("packaging", self.packaging, key=packaging_signature)
        _reject_duplicate_axis_values("carbon_sources", self.carbon_sources)
        _reject_duplicate_axis_values("lifetimes", self.lifetimes)
        _reject_duplicate_axis_values("system_volumes", self.system_volumes)
        for name, values in self.overrides:
            _reject_duplicate_axis_values(name, values, key=canonical_value)

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, config: Mapping[str, Any], base_dir: Optional[PathLike] = None
    ) -> "SweepSpec":
        """Build a spec from a JSON/YAML-style dictionary.

        Scalars are promoted to one-element axes, packaging entries may be
        plain architecture names (``"rdl"``) or full dicts, and
        ``design_dirs`` are resolved relative to ``base_dir`` (usually the
        directory of the spec file).  Keys that are not core spec keys
        resolve through the axis registry (:mod:`repro.axes`): any
        registered axis name maps to an override-axis value list.
        """
        extra = set(config) - _SPEC_KEYS
        override_keys: List[str] = []
        unknown: List[str] = []
        for key in sorted(extra):
            try:
                get_axis(key)
            except KeyError:
                unknown.append(key)
            else:
                override_keys.append(key)
        if unknown:
            raise KeyError(
                f"unknown sweep-spec keys {unknown}; known keys: "
                f"{sorted(_SPEC_KEYS)}; registered axes: {axis_names()}"
            )

        def listify(value: Any) -> List[Any]:
            if value is None:
                return []
            if isinstance(value, (str, bytes, Mapping)):
                return [value]
            if isinstance(value, (list, tuple)):
                return list(value)
            return [value]

        def numbers(key: str) -> Tuple[Any, ...]:
            # Booleans pass through unconverted for the checks to reject.
            return tuple(
                value if isinstance(value, bool) else float(value)
                for value in listify(config.get(key))
            )

        design_dirs = []
        for entry in listify(config.get("design_dirs")):
            path = Path(str(entry))
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            design_dirs.append(str(path))

        packaging = []
        for entry in listify(config.get("packaging")):
            if isinstance(entry, str):
                packaging.append({"type": entry})
            elif isinstance(entry, Mapping):
                packaging.append(dict(entry))
            else:
                raise TypeError(
                    f"packaging entries must be names or dicts, got {entry!r}"
                )

        node_configs = tuple(
            tuple(float(n) for n in entry)
            for entry in listify(config.get("node_configs"))
        )

        overrides = tuple(
            (key, tuple(listify(config.get(key)))) for key in override_keys
        )

        return cls(
            name=str(config.get("name", "sweep")),
            testcases=tuple(str(t) for t in listify(config.get("testcases"))),
            design_dirs=tuple(design_dirs),
            nodes=tuple(float(n) for n in listify(config.get("nodes"))),
            node_configs=node_configs,
            packaging=tuple(packaging),
            carbon_sources=tuple(str(s) for s in listify(config.get("carbon_sources"))),
            lifetimes=numbers("lifetimes"),
            system_volumes=numbers("system_volumes"),
            overrides=overrides,
        )

    @classmethod
    def from_file(cls, path: PathLike) -> "SweepSpec":
        """Load a spec from a ``.json`` or YAML-ish ``.yaml``/``.yml`` file."""
        data, base_dir = load_spec_dict(path)
        return cls.from_dict(data, base_dir=base_dir)

    @classmethod
    def preset(cls, name: str) -> "SweepSpec":
        """One of the named scenario presets in :data:`PRESETS`."""
        return cls.from_dict(preset_dict(name))

    # -- expansion ------------------------------------------------------------------
    def bases(
        self, table: Optional[TechnologyTable] = None
    ) -> List[Tuple[str, str, Optional[int]]]:
        """``(base kind, base ref, chiplet count)`` per base system, in grid order.

        Every testcase name is checked against the registry, every node
        value against ``table`` (the technology table the estimator uses;
        ``None`` is the built-in table), the chiplet count is resolved only
        when a node axis needs it (``None`` otherwise), and explicit
        ``node_configs`` are checked against it here, so :meth:`count`,
        :meth:`template_groups` and :class:`repro.search.space.GridSpace`
        reject a bad spec alike, before anything runs.

        Raises:
            KeyError: an unknown testcase name.
            ValueError: a node the table cannot resolve, or a node config
                whose length is not the base's chiplet count.
        """
        if table is None:
            table = DEFAULT_TECHNOLOGY_TABLE
        for node in dict.fromkeys(itertools.chain(self.nodes, *self.node_configs)):
            try:
                table.get(node)
            except (KeyError, ValueError):
                sizes = table.feature_sizes
                raise ValueError(
                    f"node {node} is not in the technology table, which "
                    f"covers {sizes[0]:g}-{sizes[-1]:g} nm (register a node "
                    f"in the table to sweep it)"
                ) from None
        bases: List[Tuple[str, str]] = [(BASE_TESTCASE, t) for t in self.testcases]
        bases += [(BASE_DESIGN_DIR, d) for d in self.design_dirs]
        resolved: List[Tuple[str, str, Optional[int]]] = []
        for base_kind, base_ref in bases:
            if base_kind == BASE_TESTCASE:
                testcase_key(base_ref)  # raises KeyError for unknown names
            chiplets = None
            if self.nodes or self.node_configs:
                chiplets = resolve_base(base_kind, base_ref).chiplet_count
                for config in self.node_configs:
                    if len(config) != chiplets:
                        raise ValueError(
                            f"node config {config} has {len(config)} entries but "
                            f"{base_ref!r} has {chiplets} chiplets"
                        )
            resolved.append((base_kind, base_ref, chiplets))
        return resolved

    def template_groups(
        self, table: Optional[TechnologyTable] = None
    ) -> Iterator[TemplateGroup]:
        """The grid as template groups, lazily, in :meth:`expand` order.

        Template-defining axes (base, nodes, packaging, overrides) are the
        outer loops, so each of their combinations is one group of
        contiguous indices whose rows run over the carbon sources,
        lifetimes and volumes.  The groups of one call share the spec's
        packaging dicts, one dict per override combination and one
        :class:`GroupKey` per (packaging, overrides) pair, so the batch
        engine hashes no dict per group.  ``table`` is the technology table
        :meth:`bases` checks the node values against.
        """
        packaging_axis: Sequence[Optional[Mapping[str, Any]]] = self.packaging or (None,)
        override_axis: Sequence[Optional[Mapping[str, Any]]] = (None,)
        if self.overrides:
            names = [name for name, _ in self.overrides]
            override_axis = [
                dict(zip(names, combo))
                for combo in itertools.product(*(values for _, values in self.overrides))
            ]
        template_axis = [
            (packaging, overrides, GroupKey.of(packaging, overrides))
            for packaging, overrides in itertools.product(packaging_axis, override_axis)
        ]
        row_axis = list(
            itertools.product(
                self.carbon_sources or (None,),
                self.lifetimes or (None,),
                self.system_volumes or (None,),
            )
        )
        index = 0
        for base_kind, base_ref, chiplets in self.bases(table):
            node_axis: Sequence[Optional[Tuple[float, ...]]] = (None,)
            if self.node_configs:
                node_axis = self.node_configs
            elif self.nodes:
                node_axis = all_node_configurations(self.nodes, chiplets)
            for nodes, (packaging, overrides, key) in itertools.product(
                node_axis, template_axis
            ):
                rows = [(index + offset,) + row for offset, row in enumerate(row_axis)]
                index += len(rows)
                yield TemplateGroup(base_kind, base_ref, nodes, packaging, overrides, rows, key)

    def expand(self, table: Optional[TechnologyTable] = None) -> List[Scenario]:
        """The flat list of scenarios: every :meth:`template_groups` row."""
        return [s for group in self.template_groups(table) for s in group.scenarios()]

    def count(self, table: Optional[TechnologyTable] = None) -> int:
        """Number of scenarios the spec expands into.

        Computed arithmetically from the axis lengths after the same base
        and node checks :meth:`expand` makes (:meth:`bases`, against
        ``table``) — no scenario objects are allocated, so sizing a huge
        grid stays cheap.
        """
        other_axes = (
            max(1, len(self.packaging))
            * max(1, len(self.carbon_sources))
            * max(1, len(self.lifetimes))
            * max(1, len(self.system_volumes))
        )
        for _, values in self.overrides:
            other_axes *= len(values)
        node_counts = [
            len(self.node_configs) or (len(self.nodes) ** chiplets if self.nodes else 1)
            for _, _, chiplets in self.bases(table)
        ]
        return sum(node_counts) * other_axes


def preset_dict(name: str) -> Dict[str, Any]:
    """A copy of the named preset's spec dictionary.

    Shared by :meth:`SweepSpec.preset` and callers that merge additional
    axes into the dictionary first (the CLI's ``--set`` flag), so name
    normalisation and the unknown-preset error live in one place.

    Raises:
        KeyError: unknown preset name, listing the known presets.
    """
    key = str(name).strip().lower()
    config = PRESETS.get(key)
    if config is None:
        raise KeyError(
            f"unknown sweep preset {name!r}; known presets: {sorted(PRESETS)}"
        )
    return dict(config)


def load_spec_dict(path: PathLike) -> Tuple[Dict[str, Any], Path]:
    """``(spec dictionary, base dir)`` of a spec file, before validation.

    Exposed separately from :meth:`SweepSpec.from_file` so callers that
    merge additional axes into the dictionary first — the CLI's ``--set``
    flag — share the file-format handling.
    """
    target = Path(path)
    text = target.read_text(encoding="utf-8")
    if target.suffix.lower() in (".yaml", ".yml"):
        data = parse_yamlish(text)
    else:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{target}: expected a JSON object at the top level")
    return data, target.parent


def load_spec(path: PathLike) -> SweepSpec:
    """Convenience alias for :meth:`SweepSpec.from_file`."""
    return SweepSpec.from_file(path)


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------
#: Named scenario presets.  ``ga102-grid`` is the paper-scale grid used by
#: the acceptance benchmark (4 nodes ^ 3 chiplets x 5 packagings x 2 fab
#: sources = 640 scenarios); ``ga102-quick`` is a fast smoke grid for CI.
PRESETS: Dict[str, Dict[str, Any]] = {
    "ga102-grid": {
        "name": "ga102-grid",
        "testcases": ["ga102-3chiplet"],
        "nodes": [7, 10, 14, 22],
        "packaging": ["rdl_fanout", "silicon_bridge", "passive_interposer", "active_interposer", "3d"],
        "carbon_sources": ["coal", "renewable_mix"],
    },
    "ga102-quick": {
        "name": "ga102-quick",
        "testcases": ["ga102-3chiplet"],
        "nodes": [7, 14],
        "packaging": ["rdl_fanout", "silicon_bridge"],
    },
    "green-fab": {
        "name": "green-fab",
        "testcases": ["ga102-3chiplet", "a15-3chiplet", "emr-2chiplet"],
        "carbon_sources": ["coal", "gas", "grid_usa", "grid_taiwan", "solar", "wind"],
        "lifetimes": [2, 4, 6, 8],
    },
    "volume-amortisation": {
        "name": "volume-amortisation",
        "testcases": ["ga102-3chiplet", "a15-3chiplet"],
        "system_volumes": [1e3, 1e4, 1e5, 1e6, 1e7],
        "packaging": ["rdl_fanout", "passive_interposer"],
    },
}


# The YAML-ish parser lives in :mod:`repro.yamlish` (shared with the axis
# registry's CLI value parsing); ``parse_yamlish`` stays re-exported here
# for backwards compatibility.
