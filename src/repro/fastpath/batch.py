"""Batch evaluation of sweep scenarios over compiled templates.

:class:`BatchEstimator` evaluates template groups
(:class:`repro.sweep.spec.TemplateGroup`: scenarios sharing a base system,
node assignment, packaging and overrides, as enumerated by a spec or
gathered from a scenario list by :func:`group_scenarios`), compiles each
template once via :class:`repro.fastpath.compiled.TemplateCompiler`, and
evaluates every row of a group as flat arithmetic over the compiled
coefficients into one record block (:class:`repro.sweep.block.RecordBlock`).
The block's records are bit-identical (exact float equality, same keys in
the same order) to the scalar path's :func:`repro.sweep.engine.make_record`
output.

The kernel is one dependency-free Python loop per group: it performs the
scalar estimator's binary64 operations in the scalar estimator's order,
which is what makes the records bit-identical.  NumPy is not used here
(a vectorised group evaluator measured within noise of this loop end to
end, and the loop must exist anyway for NumPy-free installs).
"""

from __future__ import annotations

import importlib.util
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.axes import apply_config_overrides, overrides_json
from repro.core.estimator import EstimatorConfig
from repro.fastpath.compiled import (
    GEOMETRY_CONFIG_FIELDS,
    CompiledSystem,
    GeometryCompiler,
    SourceTerms,
    TemplateCompiler,
)
from repro.packaging.base import _TO_MM2
from repro.sweep.block import RecordBlock
from repro.sweep.engine import _source_name
from repro.sweep.spec import GroupKey, GroupRow, Scenario, TemplateGroup, packaging_params_json
from repro.technology.carbon_sources import carbon_intensity
from repro.technology.nodes import TechnologyTable

Record = Dict[str, Any]

#: The per-row values of a group, in the kernel's row-tuple order; a
#: template with cost terms appends ``cost_usd``.
_ROW_KEYS = (
    "scenario",
    "fab_source",
    "lifetime_years",
    "system_volume",
    "total_carbon_g",
    "embodied_carbon_g",
    "manufacturing_carbon_g",
    "design_carbon_g",
    "hi_carbon_g",
    "operational_carbon_g",
)
_ROW_KEYS_WITH_COST = _ROW_KEYS + ("cost_usd",)

#: The per-row canonical-JSON scenario columns, for a group whose scenarios
#: do not share one packaging and one override dict.
_JSON_KEYS = ("packaging_params", "overrides")


def group_scenarios(
    scenarios: Sequence[Scenario],
) -> List[Tuple[List[int], TemplateGroup]]:
    """Group scenarios by template key, preserving first-occurrence order.

    Returns ``[(positions, group), ...]`` where ``positions`` are the
    group's scenarios' indices in the input sequence (*not* their grid
    indices, which survive resume filtering and sit in the group's rows).
    """
    # Packaging and override dicts are shared between the scenarios of one
    # spec expansion, so keying their signatures by object identity avoids
    # re-hashing the same mappings thousands of times.  The id cache is
    # only valid while the scenarios (and therefore the dicts) are alive,
    # i.e. within this call.
    keys_by_ids: Dict[Tuple[int, int], GroupKey] = {}
    groups: Dict[Tuple, Tuple[List[int], List[Scenario], GroupKey]] = {}
    for position, scenario in enumerate(scenarios):
        ids = (id(scenario.packaging), id(scenario.overrides))
        signatures = keys_by_ids.get(ids)
        if signatures is None:
            signatures = GroupKey.of(scenario.packaging, scenario.overrides)
            keys_by_ids[ids] = signatures
        key = (
            scenario.base_kind,
            scenario.base_ref,
            scenario.nodes,
            signatures.packaging,
            signatures.template,
        )
        members = groups.get(key)
        if members is None:
            groups[key] = members = ([], [], signatures)
        members[0].append(position)
        members[1].append(scenario)
    return [
        (positions, TemplateGroup.of(members, signatures))
        for positions, members, signatures in groups.values()
    ]


class _ConfigContext:
    """One compilation context per distinct estimator configuration.

    Config-target axis overrides (:mod:`repro.axes`) produce distinct
    :class:`EstimatorConfig` objects; each gets its own template compiler
    (die yield, wafer waste and design energy depend on the config) over
    the geometry stage it shares with every context that agrees on
    :data:`repro.fastpath.compiled.GEOMETRY_CONFIG_FIELDS`, plus the
    config-derived evaluation constants.
    """

    __slots__ = (
        "compiler",
        "default_fab_label",
        "default_intensities",
        "include_design",
        "include_wafer_waste",
    )

    def __init__(self, compiler: TemplateCompiler):
        self.compiler = compiler
        config = compiler.config
        self.default_fab_label = _source_name(config.fab_carbon_source)
        self.default_intensities = (
            carbon_intensity(config.fab_carbon_source),
            carbon_intensity(config.package_carbon_source),
            carbon_intensity(config.design_carbon_source),
        )
        self.include_design = config.include_design
        self.include_wafer_waste = config.include_wafer_waste


class BatchEstimator:
    """Evaluates scenario batches against compiled templates.

    Args:
        config: Estimator configuration shared by all scenarios (scenario
            ``fab_source`` overrides the three energy sources, and
            config-target axis overrides derive per-scenario configs,
            exactly like :func:`repro.sweep.engine.reference_records`).
        table: Technology table override.
        include_cost: Add ``cost_usd`` (the Chiplet-Actuary-style dollar
            cost) to every record.
        persistent_cache: Optional on-disk compile cache
            (:class:`repro.fastpath.DiskCompileCache` or a directory path),
            mounted by every config context's template compiler: compiled
            templates and floorplans persist across processes, runs and
            server restarts, and records stay bit-identical to a cold
            compile.  See :mod:`repro.fastpath.diskcache`.
    """

    def __init__(
        self,
        config: Optional[EstimatorConfig] = None,
        table: Optional[TechnologyTable] = None,
        include_cost: bool = True,
        persistent_cache: Optional[Any] = None,
    ):
        from repro.fastpath.diskcache import as_disk_cache

        self._table = table
        self.include_cost = include_cost
        #: Shared by every config context (one disk cache object, one set
        #: of cache-wide counters, one mount point).
        self.persistent_cache = as_disk_cache(persistent_cache)
        #: Geometry-config key -> the geometry stage shared by its contexts.
        self._geometries: Dict[Tuple, GeometryCompiler] = {}
        self._base_context = self._new_context(
            config if config is not None else EstimatorConfig()
        )
        #: Config-override signature -> compilation context; ``None`` is
        #: the override-free base configuration.
        self._contexts: Dict[Optional[Tuple], _ConfigContext] = {
            None: self._base_context
        }

    def _new_context(self, config: EstimatorConfig) -> _ConfigContext:
        args = (config, self._table, self.include_cost, self.persistent_cache)
        key = tuple(getattr(config, name) for name in GEOMETRY_CONFIG_FIELDS)
        geometry = self._geometries.get(key)
        if geometry is None:
            geometry = self._geometries[key] = GeometryCompiler(*args)
        return _ConfigContext(TemplateCompiler(*args, geometry=geometry))

    def _context_for(self, group: TemplateGroup) -> _ConfigContext:
        """The compilation context for a group's config-axis overrides."""
        signature = group.key.config
        if signature is None:  # hot path: grids without config axes
            return self._base_context
        context = self._contexts.get(signature)
        if context is None:
            config = apply_config_overrides(self._base_context.compiler.config, group.overrides)
            context = self._contexts[signature] = self._new_context(config)
        return context

    @property
    def numpy_available(self) -> bool:
        """True when NumPy is installed.

        The batch kernel never uses it; only
        :func:`repro.core.explorer.pareto_front` vectorises large inputs
        with it.  Kept for environment reports.
        """
        return importlib.util.find_spec("numpy") is not None

    def cache_stats(self) -> Dict[str, int]:
        """Aggregate template-cache counters across all config contexts.

        A process-wide estimator shared across server requests surfaces
        these through ``/v1/metrics``: ``template_hits`` /
        ``template_misses`` count :meth:`TemplateCompiler.compile` lookups,
        ``templates``, ``geometries`` (template geometries, shared by
        config contexts) and ``contexts`` the resident cache sizes,
        ``compiles`` the full template compilations actually run (an
        in-memory miss satisfied by the persistent disk cache is not a
        compile), and ``disk_hits`` / ``disk_misses`` the persistent-cache
        probes (zeros when no ``persistent_cache`` is mounted).
        """
        contexts = list(self._contexts.values())
        geometries = list(self._geometries.values())
        return {
            "template_hits": sum(c.compiler.template_hits for c in contexts),
            "template_misses": sum(c.compiler.template_misses for c in contexts),
            "templates": sum(len(c.compiler._templates) for c in contexts),
            "geometries": sum(len(g._geometries) for g in geometries),
            "contexts": len(contexts),
            "compiles": sum(c.compiler.compiles for c in contexts),
            "disk_hits": sum(c.compiler.disk_hits for c in contexts),
            "disk_misses": sum(c.compiler.disk_misses for c in contexts),
        }

    # -- public API -----------------------------------------------------------------
    def evaluate(self, scenarios: Iterable[Scenario]) -> List[Record]:
        """Records for ``scenarios``, in input order."""
        scenarios = list(scenarios)
        records: List[Optional[Record]] = [None] * len(scenarios)
        for positions, group in group_scenarios(scenarios):
            block = self.evaluate_block(self.compile_for(group), group)
            for position, record in zip(positions, block.records()):
                records[position] = record
        return records  # type: ignore[return-value]

    def evaluate_scenario(self, scenario: Scenario) -> Record:
        """The record of one scenario, through the compiled-template cache.

        The single-scenario seam the resilience layer evaluates through:
        containment isolates failures per scenario, so a raising scenario
        must not take its whole template group down with it.  The kernel
        is the same per row, so records match :meth:`evaluate_block`
        exactly.
        """
        group = TemplateGroup.of([scenario])
        return self.evaluate_block(self.compile_for(group), group).record(0)

    def compile_for(self, group: Union[TemplateGroup, Scenario]) -> CompiledSystem:
        """The compiled template behind a group (or a single scenario)."""
        if isinstance(group, Scenario):
            group = TemplateGroup.of([group])
        return self._context_for(group).compiler.compile(
            group.base_kind,
            group.base_ref,
            group.nodes,
            group.packaging,
            group.overrides,
            group.key,
        )

    def evaluate_group(
        self, template: CompiledSystem, scenarios: Sequence[Scenario]
    ) -> List[Record]:
        """Records for scenarios that all share ``template``."""
        return self.evaluate_block(template, TemplateGroup.of(scenarios)).records()

    def evaluate_block(self, template: CompiledSystem, group: TemplateGroup) -> RecordBlock:
        """The records of a template group's rows, as one block.

        Template-level values (base, nodes, packaging, system, areas,
        power) are held once in the block's shared record; the rest are
        per-row tuples.  The block's records equal
        :func:`repro.sweep.engine.make_record` output key for key, in the
        same key order.
        """
        rows = self._rows_pure(template, group.rows, self._context_for(group))
        # Key order matches scenario.to_record() + make_record()'s update();
        # the None values are per-row and come from ``rows``.
        shared: Record = {
            "scenario": None,
            "base": group.base_ref,
            "nodes": list(template.node_values),
            "packaging": template.architecture,
            "packaging_params": group.key.packaging_params,
            "fab_source": None,
            "lifetime_years": None,
            "system_volume": None,
            "overrides": group.key.overrides,
            "system": template.system_name,
            "total_carbon_g": None,
            "embodied_carbon_g": None,
            "manufacturing_carbon_g": None,
            "design_carbon_g": None,
            "hi_carbon_g": None,
            "operational_carbon_g": None,
            "silicon_area_mm2": template.silicon_area_mm2,
            "package_area_mm2": template.package_area_mm2,
            "power_w": template.power_w,
        }
        if template.cost is None:
            varying = _ROW_KEYS
        else:
            shared["cost_usd"] = None
            varying = _ROW_KEYS_WITH_COST
        # A group whose rows do not share one packaging and one override
        # dict (equal signatures) renders them per row.
        if group.row_dicts is not None:
            varying += _JSON_KEYS
            rows = [
                row + (packaging_params_json(packaging), overrides_json(overrides))
                for row, (packaging, overrides) in zip(rows, group.row_dicts)
            ]
        return RecordBlock(shared, varying, rows, ("nodes",))

    # -- per-(template, fab source) terms ----------------------------------------------
    def source_terms(
        self,
        template: CompiledSystem,
        fab_source: Optional[str],
        context: _ConfigContext,
    ) -> SourceTerms:
        """Terms that depend on the fab source but not on lifetime/volume.

        ``context`` must be the one ``template`` was compiled under: the
        terms (cached on the template) read its default carbon sources.
        """
        terms = template.source_terms_cache.get(fab_source)
        if terms is not None:
            return terms
        if fab_source is None:
            fab_intensity, package_intensity, design_intensity = (
                context.default_intensities
            )
            label = context.default_fab_label
        else:
            fab_intensity = package_intensity = design_intensity = carbon_intensity(
                fab_source
            )
            label = fab_source

        include_waste = context.include_wafer_waste
        manufacturing_total = 0.0
        design_parts: List[Tuple[bool, float]] = []
        for chiplet in template.chiplets:
            # Eq. 6 / Eq. 5 closed form — operation order mirrors
            # CFPAModel.breakdown and ChipManufacturingModel.cfp_for_area.
            energy_g_cm2 = chiplet.eff * fab_intensity * chiplet.epa
            unyielded_cm2 = energy_g_cm2 + chiplet.gas_g_cm2 + chiplet.material_g_cm2
            die_cfp = unyielded_cm2 * _TO_MM2 / chiplet.yield_value * chiplet.final_area_mm2
            if include_waste:
                waste_cfp = unyielded_cm2 / 100.0 * chiplet.wasted_area_mm2
            else:
                waste_cfp = 0.0
            manufacturing_total += die_cfp + waste_cfp
            # Eq. 12 per-chiplet design CFP.
            if chiplet.reused:
                design_parts.append((True, 0.0))
            else:
                total_g = chiplet.design_energy_kwh * design_intensity
                if chiplet.explicit_volume is not None:
                    design_parts.append((True, total_g / chiplet.explicit_volume))
                else:
                    design_parts.append((False, total_g))

        package_cfp, comm_cfp = template.packaging.cfp(package_intensity)
        hi_total = package_cfp + comm_cfp
        if template.comm_design_energy_kwh is not None:
            comm_design_total = template.comm_design_energy_kwh * design_intensity
        else:
            comm_design_total = 0.0
        terms = SourceTerms(
            fab_label=label,
            manufacturing_total_g=manufacturing_total,
            hi_total_g=hi_total,
            design_parts=tuple(design_parts),
            comm_design_total_g=comm_design_total,
        )
        template.source_terms_cache[fab_source] = terms
        return terms

    # -- per-row kernel --------------------------------------------------------------------
    def _rows_pure(
        self,
        template: CompiledSystem,
        group_rows: Sequence[GroupRow],
        context: _ConfigContext,
    ) -> List[Tuple[Any, ...]]:
        """The per-row values of a group, one row tuple at a time."""
        include_design = context.include_design
        annual = template.annual_cfp_g
        base_volume = template.base_volume
        base_lifetime = template.base_lifetime
        cost = template.cost
        source_terms = self.source_terms
        rows = []
        for index, fab_source, lifetime, system_volume in group_rows:
            terms = source_terms(template, fab_source, context)
            if system_volume is None:
                system_volume = base_volume
            if lifetime is None:
                lifetime = base_lifetime
            # Eq. 12 amortisation: sum(per-chiplet amortised) + comm / NS.
            amortised = 0.0
            for is_fixed, value in terms.design_parts:
                amortised = amortised + (value if is_fixed else value / system_volume)
            design_total = amortised + terms.comm_design_total_g / system_volume
            design_used = design_total if include_design else 0.0
            # Eqs. 1–2 totals, in the estimator's operation order.
            lifetime_cfp = annual * lifetime
            embodied = terms.manufacturing_total_g + design_used + terms.hi_total_g
            row = (
                index,
                terms.fab_label,
                lifetime,
                system_volume,
                embodied + lifetime_cfp,
                embodied,
                terms.manufacturing_total_g,
                design_used,
                terms.hi_total_g,
                lifetime_cfp,
            )
            if cost is not None:
                row += (cost.total_usd(system_volume),)
            rows.append(row)
        return rows
