"""Template compilation for the batch fast path.

A *template* is everything about a scenario that survives changes of fab
carbon source, lifetime and manufacturing volume: the base system, its node
assignment and its packaging architecture.  A template is resolved once —
area scaling, per-chiplet packaging overheads, floorplan geometry, yields,
wafer utilisation, EDA compute time, packaging substrate terms and the
dollar-cost structure — into flat closed-form coefficients, so that
evaluating a scenario against a compiled template is plain arithmetic (see
:mod:`repro.fastpath.batch`).

Bit-exactness contract
----------------------

Every closed-form expression below replicates the *exact* floating-point
operation order of the scalar pipeline (:meth:`repro.core.estimator.EcoChip.
estimate`, the packaging models' ``evaluate`` and
:meth:`repro.cost.model.ChipletCostModel.estimate`), so batch results equal
scalar results bit for bit.  When touching any of the mirrored formulas,
update both sides and rely on the parity tests in
``tests/integration/test_batch_parity.py`` to catch divergence.

Compilation has two stages, split by what they read of the config:

1. :class:`GeometryCompiler`: the base system with system-axis overrides
   applied, areas, packaging overheads, floorplan, packaging terms,
   operational power and dollar-cost terms.  It reads the table and only
   the :data:`GEOMETRY_CONFIG_FIELDS` of the config, so every config context
   that agrees on them shares one, keyed on base, nodes, packaging and
   system-override signatures.  Floorplans are keyed by their area
   signature (adjacency extraction runs lazily, only for architectures
   whose :attr:`~repro.packaging.base.PackagingModel.needs_adjacencies`
   flag is set).
2. :class:`TemplateCompiler`, one per config context: die yield, wasted
   wafer area and design energy, over the shared geometry.

Per-architecture closed forms live with their models: every
:class:`~repro.packaging.base.PackagingModel` implements
:meth:`~repro.packaging.base.PackagingModel.compile_terms` next to the
``evaluate`` formula it mirrors, so the compiler needs no per-architecture
dispatch and out-of-tree architectures registered through
:func:`repro.packaging.registry.register_packaging` compile like built-in
ones.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.axes import apply_system_overrides
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.core.system import ChipletSystem
from repro.fastpath.diskcache import DiskCompileCache, as_disk_cache
from repro.cost.model import (
    DESIGN_COST_USD_PER_GATE,
    MASK_SET_COST_USD,
    ChipletCostModel,
    _lookup_by_node,
)
from repro.design.design_cfp import DEFAULT_COMM_DESIGN_GATES
from repro.design.eda import gates_from_transistors
from repro.floorplan.slicing import FloorplanResult, SlicingFloorplanner
from repro.packaging.base import PackagedChiplet, PackagingModel, PackagingTerms
from repro.packaging.registry import build_packaging_model, spec_from_dict
from repro.sweep.spec import GroupKey, packaging_signature, resolve_base
from repro.technology.nodes import (
    TechnologyTable,
    _normalise_node_key,
    table_signature,
)

__all__ = [
    "ChipletTerms",
    "CompiledSystem",
    "CostGroupTerms",
    "CostTerms",
    "GEOMETRY_CONFIG_FIELDS",
    "GeometryCompiler",
    "PackagingTerms",
    "SourceTerms",
    "TemplateCompiler",
    "TemplateGeometry",
    "TemplateKey",
    "compile_packaging",
    "packaging_signature",
]


def compile_packaging(
    model: PackagingModel,
    packaged_chiplets: Tuple[PackagedChiplet, ...],
    floorplan: FloorplanResult,
) -> PackagingTerms:
    """Flatten ``model.evaluate(packaged_chiplets, floorplan)`` into closed form.

    Convenience wrapper around :meth:`PackagingModel.compile_terms` with
    uncached per-call PHY/router power figures; the compiler proper goes
    through :meth:`GeometryCompiler._compile_packaging`, which caches them
    per (spec, node).
    """
    spec = getattr(model, "spec", None)

    def phy_power(node: Any) -> float:
        return model.phy_model.average_power_w(node, lanes=spec.phy_lanes)

    def router_power(node: Any) -> float:
        return model.router_power_w(node, injection_rate=spec.router_injection_rate)

    return model.compile_terms(
        tuple(chiplet.node for chiplet in packaged_chiplets),
        tuple(chiplet.area_mm2 for chiplet in packaged_chiplets),
        floorplan,
        phy_power,
        router_power,
    )


# ---------------------------------------------------------------------------
# Per-chiplet and cost terms
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ChipletTerms:
    """Scenario-independent coefficients of one chiplet in a template.

    ``eff``/``epa``/``gas_g_cm2``/``material_g_cm2`` feed the Eq. 6 CFPA
    closed form, ``yield_value``/``wasted_area_mm2`` the Eq. 5 terms, and
    ``design_energy_kwh`` is the intensity-free factor of the chiplet's
    un-amortised design CFP (zero for reused IP).
    """

    name: str
    final_area_mm2: float
    eff: float
    epa: float
    gas_g_cm2: float
    material_g_cm2: float
    yield_value: float
    wasted_area_mm2: float
    design_energy_kwh: float
    reused: bool
    explicit_volume: Optional[float]


@dataclasses.dataclass(frozen=True)
class CostGroupTerms:
    """One NRE-sharing design group of the dollar-cost model."""

    masks_plus_design_usd: float
    reused: bool
    member_volumes: Tuple[Optional[float], ...]


@dataclasses.dataclass(frozen=True)
class CostTerms:
    """Closed-form dollar cost: fixed part plus volume-amortised NRE."""

    fixed_usd: float
    groups: Tuple[CostGroupTerms, ...]

    def total_usd(self, system_volume: float) -> float:
        """``ChipletCostModel.estimate(...).total_cost_usd`` for ``NS``."""
        nre_total = 0.0
        for group in self.groups:
            if group.reused:
                continue  # nre_cost_usd returns 0.0 for reused groups
            volume = 0.0
            for member in group.member_volumes:
                volume += member if member is not None else system_volume
            nre_total += group.masks_plus_design_usd / volume
        return self.fixed_usd + nre_total


@dataclasses.dataclass(frozen=True)
class SourceTerms:
    """Per-(template, fab source) terms: everything but lifetime and volume.

    ``design_parts`` holds one ``(is_fixed, value)`` pair per chiplet: fixed
    parts are already-amortised grams (reused IP or explicit ``NM``), scaled
    parts are un-amortised grams still to be divided by ``NS``.
    """

    fab_label: str
    manufacturing_total_g: float
    hi_total_g: float
    design_parts: Tuple[Tuple[bool, float], ...]
    comm_design_total_g: float


class CompiledSystem:
    """One fully-compiled scenario template plus its per-source term cache."""

    __slots__ = (
        "system_name", "node_values", "architecture",
        "chiplets", "packaging", "comm_design_energy_kwh",
        "base_volume", "base_lifetime",
        "annual_cfp_g", "power_w", "silicon_area_mm2", "package_area_mm2",
        "cost", "source_terms_cache",
    )

    def __init__(
        self,
        system_name: str,
        node_values: Tuple[float, ...],
        base_volume: float,
        base_lifetime: float,
        chiplets: Tuple[ChipletTerms, ...],
        packaging: PackagingTerms,
        comm_design_energy_kwh: Optional[float],
        annual_cfp_g: float,
        power_w: float,
        silicon_area_mm2: float,
        cost: Optional[CostTerms],
    ):
        self.system_name = system_name
        self.node_values = node_values
        self.architecture = packaging.architecture
        self.chiplets = chiplets
        self.packaging = packaging
        self.comm_design_energy_kwh = comm_design_energy_kwh
        self.base_volume = base_volume
        self.base_lifetime = base_lifetime
        self.annual_cfp_g = annual_cfp_g
        self.power_w = power_w
        self.silicon_area_mm2 = silicon_area_mm2
        self.package_area_mm2 = packaging.package_area_mm2
        self.cost = cost
        self.source_terms_cache: Dict[Optional[str], SourceTerms] = {}


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------
#: Template keys carry the *full* parameterised packaging spec — the
#: packaging component is :func:`repro.sweep.spec.packaging_signature` of
#: the concrete override dict — plus the registered-axis override terms
#: (:func:`repro.axes.template_overrides_signature`, which runs each
#: axis's ``compile_terms`` hook), so two scenarios that differ in any
#: param-axis or axis-override value compile to distinct templates while
#: scenarios sharing every value share one.
TemplateKey = Tuple[
    str, str, Optional[Tuple[float, ...]], Optional[Tuple], Optional[Tuple]
]

#: The :class:`EstimatorConfig` fields the geometry stage reads: the
#: floorplanner's spacing and the packaging model's router spec and carbon
#: source.  Config contexts that agree on them share one
#: :class:`GeometryCompiler`; every other field is read per context only.
GEOMETRY_CONFIG_FIELDS = ("chiplet_spacing_mm", "router_spec", "package_carbon_source")


class TemplateGeometry(NamedTuple):
    """Stage 1 of a template: everything its config context cannot change."""

    base: ChipletSystem  # system-axis overrides applied
    node_keys: Tuple[Any, ...]
    node_values: Tuple[float, ...]
    final_areas: Tuple[float, ...]
    transistors: Tuple[float, ...]
    packaging: PackagingTerms
    is_monolithic: bool
    annual_cfp_g: float
    power_w: float
    silicon_area_mm2: float
    cost: Optional[CostTerms]


class GeometryCompiler:
    """Stage 1: compiles and caches the config-free geometry of templates.

    Reads the technology table and only the :data:`GEOMETRY_CONFIG_FIELDS`
    of ``config``, so one instance serves every config context that agrees
    on them.  Arguments as for :class:`TemplateCompiler`.
    """

    def __init__(
        self,
        config: Optional[EstimatorConfig] = None,
        table: Optional[TechnologyTable] = None,
        include_cost: bool = True,
        persistent_cache: Optional[Any] = None,
    ):
        self.estimator = EcoChip(config=config, table=table)
        self.config = self.estimator.config
        self.cost_model = (
            ChipletCostModel(table=self.estimator.table) if include_cost else None
        )
        self.persistent_cache: Optional[DiskCompileCache] = as_disk_cache(
            persistent_cache
        )
        self._bases: Dict[Tuple[str, str], ChipletSystem] = {}
        # (base kind, base ref, nodes, packaging signature, system-override
        # signature) -> geometry
        self._geometries: Dict[Tuple, TemplateGeometry] = {}
        # packaging signature -> packaging spec
        self._specs: Dict[Optional[Tuple], Any] = {}
        # (base key incl. system-override signature, chiplet name, node)
        # -> (base area, transistor count)
        self._areas: Dict[Tuple, Tuple[float, float]] = {}
        # packaging spec -> model (compile-time only: yields / areas / powers)
        self._packaging_models: Dict[Any, PackagingModel] = {}
        # (packaging spec, node, chiplet count) -> per-chiplet area overhead
        self._overheads: Dict[Tuple[Any, float, int], float] = {}
        # (packaging spec, node) -> PHY / router communication power figures
        self._phy_powers: Dict[Tuple[Any, float], float] = {}
        self._router_powers: Dict[Tuple[Any, float], float] = {}
        # (spacing, area items) -> (floorplan, has adjacencies), shared
        # across templates: equal area signatures floorplan identically.
        self._floorplans: Dict[Tuple, Tuple[FloorplanResult, bool]] = {}
        # (base area, node) -> die cost in USD
        self._die_costs: Dict[Tuple[float, float], float] = {}

    def _floorplan(
        self,
        planner: SlicingFloorplanner,
        areas: Dict[str, float],
        need_adjacencies: bool,
    ) -> FloorplanResult:
        key = (planner.spacing_mm, tuple(areas.items()))
        entry = self._floorplans.get(key)
        cache = self.persistent_cache
        if entry is None:
            # Floorplans are pure geometry: independent of config and table,
            # so their disk entries are keyed on the signature alone and
            # shared across every compiler mounting the directory.
            if cache is not None:
                cached = cache.load("floorplan", None, key + (need_adjacencies,))
                if cached is not None:
                    self._floorplans[key] = (cached, need_adjacencies)
                    return cached
            floorplan = planner.floorplan(areas, adjacencies=need_adjacencies)
            self._floorplans[key] = (floorplan, need_adjacencies)
            if cache is not None:
                cache.store("floorplan", None, key + (need_adjacencies,), floorplan)
            return floorplan
        floorplan, has_adjacencies = entry
        if need_adjacencies and not has_adjacencies:
            floorplan = planner.adjacencies_of(floorplan)
            self._floorplans[key] = (floorplan, True)
            if cache is not None:
                cache.store("floorplan", None, key + (True,), floorplan)
        return floorplan

    def _packaging_model(self, spec: Any) -> PackagingModel:
        model = self._packaging_models.get(spec)
        if model is None:
            # The intensity of this model instance is never used: the
            # compiler only reads its geometry, yield and power helpers.
            model = build_packaging_model(
                spec,
                table=self.estimator.table,
                package_carbon_source=self.config.package_carbon_source,
                router_spec=self.config.router_spec,
            )
            self._packaging_models[spec] = model
        return model

    def geometry(
        self,
        base_kind: str,
        base_ref: str,
        nodes: Optional[Tuple[float, ...]],
        packaging: Optional[Mapping[str, Any]],
        overrides: Optional[Mapping[str, Any]],
        key: GroupKey,
    ) -> TemplateGeometry:
        """The (cached) geometry of one template; ``key`` is the
        :class:`~repro.sweep.spec.GroupKey` of ``packaging`` and ``overrides``."""
        geometry_key = (base_kind, base_ref, nodes, key.packaging, key.system)
        geometry = self._geometries.get(geometry_key)
        if geometry is not None:
            return geometry
        # System-target axis overrides transform the base system before any
        # geometry is derived — mirroring Scenario.build_system, which
        # applies them first on the scalar path.  Caches keyed on the base
        # (areas, cost) carry the override signature so an axis that
        # changes the chiplets themselves cannot poison shared entries.
        base_key = (base_kind, base_ref, key.system)
        base = self._bases.get((base_kind, base_ref))
        if base is None:
            base = self._bases[(base_kind, base_ref)] = resolve_base(base_kind, base_ref)
        base = apply_system_overrides(base, overrides)
        estimator = self.estimator
        if packaging is None:
            spec = base.packaging
        else:
            spec = self._specs.get(key.packaging)
            if spec is None:
                spec = self._specs[key.packaging] = spec_from_dict(dict(packaging))
        model = self._packaging_model(spec)
        chiplet_count = base.chiplet_count

        if nodes is not None:
            if len(nodes) != chiplet_count:
                raise ValueError(
                    f"expected {chiplet_count} nodes, got {len(nodes)}"
                )
            node_keys = tuple(_normalise_node_key(node) for node in nodes)
        else:
            node_keys = tuple(chiplet.node for chiplet in base.chiplets)
        node_values = tuple(float(node) for node in node_keys)

        # Geometry (estimator steps 1–3) with cross-template caches; this is
        # compute_geometry without materialising a retargeted ChipletSystem.
        final_areas: Dict[str, float] = {}
        final_area_values: List[float] = []
        transistor_counts: List[float] = []
        for chiplet, node_key, node_value in zip(base.chiplets, node_keys, node_values):
            area_key = (base_key, chiplet.name, node_value)
            cached = self._areas.get(area_key)
            if cached is None:
                cached = (
                    chiplet.area_at_node(estimator.scaling, node_key),
                    chiplet.transistor_count(estimator.scaling),
                )
                self._areas[area_key] = cached
            base_area, transistors = cached
            transistor_counts.append(transistors)
            overhead_key = (spec, node_value, chiplet_count)
            overhead = self._overheads.get(overhead_key)
            if overhead is None:
                probe = PackagedChiplet(
                    name=chiplet.name,
                    area_mm2=base_area,
                    node=node_value,
                    design_type=chiplet.design_type,  # type: ignore[arg-type]
                )
                overhead = model.chiplet_area_overhead_mm2(probe, chiplet_count)
                self._overheads[overhead_key] = overhead
            final_area = base_area + overhead
            final_areas[chiplet.name] = final_area
            final_area_values.append(final_area)
        floorplan = self._floorplan(
            estimator.floorplanner, final_areas, model.needs_adjacencies
        )
        packaging_terms = self._compile_packaging(
            model, spec, node_keys, tuple(final_area_values), floorplan
        )

        # Operational terms (estimator step 7): _effective_operating_spec
        # replicated over the compiled geometry — the annual footprint and
        # the power figure are lifetime- and fab-source-independent.
        table = estimator.table
        operating = base.operating.with_comm_power(packaging_terms.comm_power_w)
        if operating.annual_energy_kwh is None and operating.average_power_w is None:
            total_area = sum(final_areas.values())
            updates: Dict[str, object] = {}
            energy_model = estimator.energy_model
            if operating.leakage_current_a is None:
                updates["leakage_current_a"] = sum(
                    energy_model.leakage_current_a(final_areas[c.name], node)
                    for c, node in zip(base.chiplets, node_keys)
                )
            if operating.load_capacitance_f is None:
                updates["load_capacitance_f"] = sum(
                    energy_model.load_capacitance_f(final_areas[c.name], node)
                    for c, node in zip(base.chiplets, node_keys)
                )
            if operating.vdd_v is None and total_area > 0:
                updates["vdd_v"] = sum(
                    table.get(node).vdd_v * final_areas[c.name]
                    for c, node in zip(base.chiplets, node_keys)
                ) / total_area
            if updates:
                operating = dataclasses.replace(operating, **updates)
        operational = estimator.operational_model.evaluate(operating)

        geometry = self._geometries[geometry_key] = TemplateGeometry(
            base=base,
            node_keys=node_keys,
            node_values=node_values,
            final_areas=tuple(final_area_values),
            transistors=tuple(transistor_counts),
            packaging=packaging_terms,
            is_monolithic=chiplet_count == 1 or model.is_monolithic,
            annual_cfp_g=operational.annual_cfp_g,
            power_w=operational.energy.total_power_w,
            silicon_area_mm2=sum(final_area_values),
            cost=(
                self._compile_cost(base_key, base, node_values) if self.cost_model else None
            ),
        )
        return geometry

    def _compile_packaging(
        self,
        model: PackagingModel,
        spec: Any,
        node_keys: Tuple[Any, ...],
        area_values: Tuple[float, ...],
        floorplan: FloorplanResult,
    ) -> PackagingTerms:
        """``model.compile_terms`` with per-(spec, node) power caches."""
        phy_powers = self._phy_powers
        router_powers = self._router_powers

        def phy_power(node: Any) -> float:
            key = (spec, float(node))
            value = phy_powers.get(key)
            if value is None:
                value = model.phy_model.average_power_w(node, lanes=spec.phy_lanes)
                phy_powers[key] = value
            return value

        def router_power(node: Any) -> float:
            key = (spec, float(node))
            value = router_powers.get(key)
            if value is None:
                value = model.router_power_w(
                    node, injection_rate=spec.router_injection_rate
                )
                router_powers[key] = value
            return value

        return model.compile_terms(
            node_keys, area_values, floorplan, phy_power, router_power
        )

    def _compile_cost(
        self,
        base_key: Tuple[str, str, Optional[Tuple]],
        base: ChipletSystem,
        node_values: Tuple[float, ...],
    ) -> CostTerms:
        """Flatten :meth:`ChipletCostModel.estimate` for this template.

        Mirrors the scalar model exactly: per-chiplet die costs and the
        assembly cost are volume-independent, NRE-sharing design groups keep
        their insertion order and fold member volumes left to right.
        """
        cost_model = self.cost_model
        assert cost_model is not None
        areas: Dict[str, float] = {}
        die_cost_sum = 0.0
        group_order: List[Tuple[str, float, float]] = []
        group_members: Dict[Tuple[str, float, float], List[Optional[float]]] = {}
        group_meta: Dict[Tuple[str, float, float], Tuple[float, bool]] = {}
        for chiplet, node_value in zip(base.chiplets, node_values):
            # Base areas (no packaging overhead), identical to the cached
            # estimator values: both scaling models share the table.
            base_area, transistors = self._areas[(base_key, chiplet.name, node_value)]
            areas[chiplet.name] = base_area
            die_key = (base_area, node_value)
            die_cost = self._die_costs.get(die_key)
            if die_cost is None:
                die_cost = cost_model.die_cost_usd(base_area, node_value)
                self._die_costs[die_key] = die_cost
            die_cost_sum += die_cost
            signature = (
                chiplet.design_type.value,  # type: ignore[union-attr]
                node_value,
                round(transistors, 3),
            )
            if signature not in group_members:
                group_order.append(signature)
                group_members[signature] = []
                group_meta[signature] = (transistors, True)
            group_members[signature].append(chiplet.manufactured_volume)
            transistors_first, all_reused = group_meta[signature]
            group_meta[signature] = (transistors_first, all_reused and chiplet.reused)

        package_area = self._floorplan(
            cost_model.floorplanner, areas, need_adjacencies=False
        ).package_area_mm2
        assembly = cost_model.assembly_cost_usd(package_area, len(base.chiplets))
        fixed = die_cost_sum + assembly

        groups: List[CostGroupTerms] = []
        for signature in group_order:
            transistors_first, all_reused = group_meta[signature]
            # nre_cost_usd: (mask set + design) / volume; the numerator is
            # volume-independent, so precompute the sum with the same ops.
            masks = _lookup_by_node(MASK_SET_COST_USD, signature[1])
            gates = transistors_first / 6.25
            design = gates * DESIGN_COST_USD_PER_GATE
            groups.append(
                CostGroupTerms(
                    masks_plus_design_usd=masks + design,
                    reused=all_reused,
                    member_volumes=tuple(group_members[signature]),
                )
            )
        return CostTerms(fixed_usd=fixed, groups=tuple(groups))


class TemplateCompiler:
    """Stage 2: compiles and caches :class:`CompiledSystem` templates under one config.

    Adds what reads the rest of the config (die yield, wasted wafer area,
    design energy) to the geometry a :class:`GeometryCompiler` compiles.

    Args:
        config: Estimator configuration (same meaning as for
            :class:`repro.core.estimator.EcoChip`).
        table: Technology table override.
        include_cost: Also compile the dollar-cost terms for ``cost_usd``.
        persistent_cache: Optional on-disk compile cache
            (:class:`repro.fastpath.DiskCompileCache` or a directory path):
            templates and floorplans missing from the in-memory caches are
            loaded from (and compiled results stored to) disk, so cold
            starts across processes, runs and server restarts share one
            compile investment.  Entries are salted with the config, the
            technology-table content hash and the cost flag, so a cache
            directory may be shared between differently-configured
            compilers without cross-talk.
        geometry: A geometry stage to share (same table and cost flag, and
            a config equal on :data:`GEOMETRY_CONFIG_FIELDS`); else a new one.
    """

    def __init__(
        self,
        config: Optional[EstimatorConfig] = None,
        table: Optional[TechnologyTable] = None,
        include_cost: bool = True,
        persistent_cache: Optional[Any] = None,
        geometry: Optional[GeometryCompiler] = None,
    ):
        self.config = config if config is not None else EstimatorConfig()
        self.estimator = EcoChip(config=self.config, table=table)
        self.persistent_cache: Optional[DiskCompileCache] = as_disk_cache(
            persistent_cache
        )
        if geometry is None:
            geometry = GeometryCompiler(self.config, table, include_cost, self.persistent_cache)
        self.geometry = geometry
        #: Everything template values depend on besides the template key
        #: itself — table content, config, cost flag — pre-digested so each
        #: entry address hashes a short string, not the full config repr.
        #: Computed only when a persistent cache is mounted: cache-less
        #: compilers (the common case) skip the table walk entirely.
        if self.persistent_cache is not None:
            import hashlib

            self._disk_salt: Optional[str] = hashlib.sha256(
                repr(
                    (table_signature(table), repr(self.config), bool(include_cost))
                ).encode("utf-8")
            ).hexdigest()
        else:
            self._disk_salt = None
        self._templates: Dict[TemplateKey, CompiledSystem] = {}
        #: Template-cache hit/miss counters (int increments are GIL-atomic;
        #: a server sharing one compiler across threads reads these for its
        #: /v1/metrics endpoint).  ``template_misses`` counts in-memory
        #: misses; ``compiles`` counts the subset that also missed the
        #: persistent cache and ran the full compile.
        self.template_hits = 0
        self.template_misses = 0
        self.compiles = 0
        self.disk_hits = 0
        self.disk_misses = 0
        # design-directory base ref -> content fingerprint (templates built
        # on on-disk designs key their persistent entries on the files too).
        self._dir_fingerprints: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        # (final area, node) -> ChipletTerms fields eff .. wasted_area_mm2
        self._die_terms: Dict[Tuple[float, float], Tuple[float, ...]] = {}
        # (transistors, node, iterations) -> design energy in kWh
        self._design_kwh: Dict[Tuple[float, float, int], float] = {}
        # iterations -> inter-die communication design energy in kWh
        self._comm_kwh: Dict[int, float] = {}

    # -- template compilation ---------------------------------------------------------
    def compile(
        self,
        base_kind: str,
        base_ref: str,
        nodes: Optional[Tuple[float, ...]],
        packaging: Optional[Mapping[str, Any]],
        overrides: Optional[Mapping[str, Any]] = None,
        key: Optional[GroupKey] = None,
    ) -> CompiledSystem:
        """Compile (or fetch) the template for one scenario family.

        ``overrides`` is the scenario's registered-axis override mapping
        (:mod:`repro.axes`): system-target axes are applied to the base
        system before compilation, and the axis ``compile_terms`` hooks
        key the template cache.  Config-target axes must already be baked
        into this compiler's ``config`` — the
        :class:`repro.fastpath.batch.BatchEstimator` keeps one compiler
        per config-override signature.  ``key`` is the
        :class:`~repro.sweep.spec.GroupKey` of ``packaging`` and ``overrides``.
        """
        key = key if key is not None else GroupKey.of(packaging, overrides)
        template_key: TemplateKey = (base_kind, base_ref, nodes, key.packaging, key.template)
        template = self._templates.get(template_key)
        if template is None:
            self.template_misses += 1
            template = self._load_persistent(template_key)
            if template is None:
                template = self._compile(
                    self.geometry.geometry(base_kind, base_ref, nodes, packaging, overrides, key)
                )
                self.compiles += 1
                self._store_persistent(template_key, template)
            self._templates[template_key] = template
        else:
            self.template_hits += 1
        return template

    # -- persistent cache -------------------------------------------------------------
    def _template_disk_key(self, key: TemplateKey) -> Tuple:
        """The on-disk address material of a template key.

        Templates built on a design directory depend on its files, not just
        its path, so the key grows a content fingerprint: an edited design
        never replays a stale entry.
        """
        base_kind, base_ref = key[0], key[1]
        if base_kind != "design_dir":
            return key
        fingerprint = self._dir_fingerprints.get(base_ref)
        if fingerprint is None:
            import hashlib
            from pathlib import Path

            entries = []
            root = Path(base_ref)
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                entries.append(
                    (
                        path.relative_to(root).as_posix(),
                        hashlib.sha256(path.read_bytes()).hexdigest(),
                    )
                )
            fingerprint = tuple(entries)
            self._dir_fingerprints[base_ref] = fingerprint
        return key + (fingerprint,)

    def _load_persistent(self, key: TemplateKey) -> Optional[CompiledSystem]:
        cache = self.persistent_cache
        if cache is None:
            return None
        template = cache.load("template", self._disk_salt, self._template_disk_key(key))
        if template is None:
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return template

    def _store_persistent(self, key: TemplateKey, template: CompiledSystem) -> None:
        if self.persistent_cache is not None:
            # Stored straight after compilation, before any evaluation, so
            # the per-source term cache ships empty and entries stay lean.
            self.persistent_cache.store(
                "template", self._disk_salt, self._template_disk_key(key), template
            )

    def _compile(self, geometry: TemplateGeometry) -> CompiledSystem:
        """The config-dependent terms over a template's shared geometry."""
        estimator = self.estimator
        base = geometry.base
        iterations = base.design_iterations
        design_model = estimator.design_model
        table = estimator.table
        chiplet_terms: List[ChipletTerms] = []
        for chiplet, node_key, node_value, transistors, final_area in zip(
            base.chiplets, geometry.node_keys, geometry.node_values,
            geometry.transistors, geometry.final_areas,
        ):
            die_key = (final_area, node_value)
            die_terms = self._die_terms.get(die_key)
            if die_terms is None:
                record = table.get(node_key)
                die_terms = (
                    record.equipment_efficiency,
                    record.epa_kwh_per_cm2,
                    record.gas_kg_per_cm2 * 1000.0,
                    record.material_kg_per_cm2 * 1000.0,
                    estimator.manufacturing.yield_model.die_yield(final_area, node_key),
                    estimator.manufacturing.wafer.utilisation(
                        final_area
                    ).wasted_area_per_die_mm2,
                )
                self._die_terms[die_key] = die_terms
            if chiplet.reused:
                design_kwh = 0.0
            else:
                kwh_key = (transistors, node_value, iterations)
                design_kwh = self._design_kwh.get(kwh_key)
                if design_kwh is None:
                    gates = gates_from_transistors(
                        transistors, design_model.transistors_per_gate
                    )
                    hours = design_model.spr_model.design_hours(gates, node_key, iterations)
                    design_kwh = hours * design_model.design_power_w / 1000.0
                    self._design_kwh[kwh_key] = design_kwh
            chiplet_terms.append(
                ChipletTerms(
                    chiplet.name, final_area, *die_terms, design_kwh,
                    chiplet.reused, chiplet.manufactured_volume,
                )
            )

        # Inter-die communication design effort (None for monolithic systems).
        comm_design_kwh: Optional[float] = None
        if not geometry.is_monolithic and DEFAULT_COMM_DESIGN_GATES > 0:
            comm_design_kwh = self._comm_kwh.get(iterations)
            if comm_design_kwh is None:
                comm_hours = design_model.spr_model.design_hours(
                    DEFAULT_COMM_DESIGN_GATES, 7, iterations
                )
                comm_design_kwh = comm_hours * design_model.design_power_w / 1000.0
                self._comm_kwh[iterations] = comm_design_kwh

        return CompiledSystem(
            system_name=base.name,
            node_values=geometry.node_values,
            base_volume=base.system_volume,
            base_lifetime=base.operating.lifetime_years,
            chiplets=tuple(chiplet_terms),
            packaging=geometry.packaging,
            comm_design_energy_kwh=comm_design_kwh,
            annual_cfp_g=geometry.annual_cfp_g,
            power_w=geometry.power_w,
            silicon_area_mm2=geometry.silicon_area_mm2,
            cost=geometry.cost,
        )
