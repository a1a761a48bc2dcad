"""The ECO-CHIP estimator: ties every model together (Eqs. 1–3).

The estimation pipeline for a :class:`~repro.core.system.ChipletSystem`:

1. Resolve each chiplet's transistor count and its die area at its node
   (area-scaling model, Section III-C(1)).
2. Ask the packaging model how much silicon it adds *inside* each chiplet
   (NoC routers for passive interposers, PHYs for RDL/EMIB) and fold that
   into the chiplet areas so the overhead degrades chiplet yield.
3. Floorplan the final chiplet areas (slicing floorplanner) to obtain the
   package-substrate / interposer area including whitespace.
4. Evaluate the packaging model → ``C_HI`` (package + packaged comm CFP)
   and the operational communication power overhead.
5. Evaluate the manufacturing model per chiplet → ``Cmfg`` (Eq. 5).
6. Evaluate the design model → amortised ``Cdes`` (Eq. 12).
7. Evaluate the operational model → ``Cop`` (Eqs. 3, 14).
8. Assemble ``Cemb = Cmfg + Cdes + C_HI`` and
   ``Ctot = Cemb + lifetime * Cop`` (Eqs. 1–2).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from repro.core.results import ChipletCarbonReport, SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.design.design_cfp import DesignCarbonModel, SystemDesignResult
from repro.floorplan.slicing import (
    DEFAULT_CHIPLET_SPACING_MM,
    FloorplanResult,
    SlicingFloorplanner,
)
from repro.manufacturing.chip import ChipManufacturingModel
from repro.manufacturing.wafer import DEFAULT_WAFER_DIAMETER_MM
from repro.noc.orion import RouterSpec
from repro.operational.energy import EnergyModel, OperatingSpec
from repro.operational.operational_cfp import OperationalCarbonModel
from repro.packaging.base import PackagedChiplet
from repro.packaging.registry import build_packaging_model
from repro.technology.carbon_sources import CarbonSource
from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, TechnologyTable
from repro.technology.scaling import AreaScalingModel

SourceLike = Union[CarbonSource, str, float, int]


@dataclasses.dataclass(frozen=True)
class EstimatorConfig:
    """Global configuration of the estimator (Section III-A inputs 3 and 4).

    Attributes:
        fab_carbon_source: Energy source of the chip-manufacturing fab.
        package_carbon_source: Energy source of the packaging/assembly fab.
        design_carbon_source: Energy source of the design-compute farm.
        design_power_w: Power of one EDA CPU thread (``Pdes``).
        wafer_diameter_mm: Wafer diameter for the waste model.
        include_wafer_waste: Charge wasted wafer-periphery silicon
            (disable to reproduce the "without wastage" bars of Fig. 3b).
        include_design: Include the design CFP term in ``Cemb``
            (disable to mimic ACT-style accounting).
        chiplet_spacing_mm: Floorplanner spacing constraint.
        router_spec: NoC router microarchitecture for interposer packages.
        defect_density_scale: Multiplier on every node's Table-I defect
            density in the Eq. 4 die-yield model (the
            ``defect_density_scale`` sweep axis); 1.0 reproduces the
            table values bit-exactly.
    """

    fab_carbon_source: SourceLike = CarbonSource.COAL
    package_carbon_source: SourceLike = CarbonSource.COAL
    design_carbon_source: SourceLike = CarbonSource.COAL
    design_power_w: float = 10.0
    wafer_diameter_mm: float = DEFAULT_WAFER_DIAMETER_MM
    include_wafer_waste: bool = True
    include_design: bool = True
    chiplet_spacing_mm: float = DEFAULT_CHIPLET_SPACING_MM
    router_spec: RouterSpec = dataclasses.field(default_factory=RouterSpec)
    defect_density_scale: float = 1.0


@dataclasses.dataclass(frozen=True)
class SystemGeometry:
    """Scenario-independent geometry of a system under one packaging model.

    Produced by :meth:`EcoChip.compute_geometry` and consumed by the
    manufacturing / packaging / operational stages of the pipeline — and by
    :mod:`repro.fastpath`, which compiles it once per scenario template and
    reuses it for every scenario that shares the same node assignment and
    packaging architecture.

    Attributes:
        base_areas: Chiplet name -> die area of the chiplet's own logic.
        overhead_areas: Chiplet name -> silicon added by the packaging
            architecture inside the chiplet (routers, PHYs).
        final_areas: Chiplet name -> ``base + overhead`` (manufactured area).
        packaged_chiplets: Final-area chiplet descriptions, in system order,
            ready for :meth:`repro.packaging.base.PackagingModel.evaluate`.
        floorplan: Slicing floorplan of the final chiplet areas.
    """

    base_areas: Dict[str, float]
    overhead_areas: Dict[str, float]
    final_areas: Dict[str, float]
    packaged_chiplets: Tuple[PackagedChiplet, ...]
    floorplan: FloorplanResult


class EcoChip:
    """Architecture-level total-CFP estimator for monolithic and HI systems.

    Args:
        config: Estimator configuration; defaults match the paper's setup
            (coal-powered fabs, 450 mm wafers, wafer waste and design CFP
            included).
        table: Technology table; the built-in default spans 3–65 nm.
    """

    def __init__(
        self,
        config: Optional[EstimatorConfig] = None,
        table: Optional[TechnologyTable] = None,
    ):
        self.config = config if config is not None else EstimatorConfig()
        self.table = table if table is not None else DEFAULT_TECHNOLOGY_TABLE
        self.scaling = AreaScalingModel(table=self.table)
        self.manufacturing = ChipManufacturingModel(
            table=self.table,
            fab_carbon_source=self.config.fab_carbon_source,
            wafer_diameter_mm=self.config.wafer_diameter_mm,
            include_wafer_waste=self.config.include_wafer_waste,
            defect_density_scale=self.config.defect_density_scale,
        )
        self.design_model = DesignCarbonModel(
            table=self.table,
            design_power_w=self.config.design_power_w,
            design_carbon_source=self.config.design_carbon_source,
        )
        self.operational_model = OperationalCarbonModel(table=self.table)
        self.energy_model = EnergyModel(table=self.table)
        self.floorplanner = SlicingFloorplanner(spacing_mm=self.config.chiplet_spacing_mm)

    # -- pure kernels --------------------------------------------------------------
    # Each stage of the pipeline is a standalone kernel over explicit inputs,
    # so callers (the fast path in particular) can run any subset of stages
    # and reuse intermediate results across scenarios.
    def build_packaging_model(self, system: ChipletSystem):
        """The packaging model of ``system`` under this estimator's config."""
        return build_packaging_model(
            system.packaging,
            table=self.table,
            package_carbon_source=self.config.package_carbon_source,
            router_spec=self.config.router_spec,
        )

    def compute_geometry(self, system: ChipletSystem, packaging_model) -> SystemGeometry:
        """Steps 1–3: areas, per-chiplet packaging overheads and floorplan.

        Each :class:`PackagedChiplet` is constructed once at the chiplet's
        base area, used to query the architecture's area overhead (which
        depends only on node and design type), and then re-issued with the
        final area — the overhead-free case reuses the object as is.
        """
        base_areas: Dict[str, float] = {}
        overhead_areas: Dict[str, float] = {}
        final_areas: Dict[str, float] = {}
        packaged_chiplets: List[PackagedChiplet] = []
        for chiplet in system.chiplets:
            base_area = chiplet.area_at_node(self.scaling)
            packaged = PackagedChiplet(
                name=chiplet.name,
                area_mm2=base_area,
                node=float(chiplet.node),
                design_type=chiplet.design_type,  # type: ignore[arg-type]
            )
            overhead = packaging_model.chiplet_area_overhead_mm2(
                packaged, system.chiplet_count
            )
            final_area = base_area + overhead
            base_areas[chiplet.name] = base_area
            overhead_areas[chiplet.name] = overhead
            final_areas[chiplet.name] = final_area
            if overhead:
                packaged = dataclasses.replace(packaged, area_mm2=final_area)
            packaged_chiplets.append(packaged)
        floorplan = self.floorplanner.floorplan(final_areas)
        return SystemGeometry(
            base_areas=base_areas,
            overhead_areas=overhead_areas,
            final_areas=final_areas,
            packaged_chiplets=tuple(packaged_chiplets),
            floorplan=floorplan,
        )

    def manufacturing_reports(
        self, system: ChipletSystem, geometry: SystemGeometry
    ) -> Tuple[List[ChipletCarbonReport], float]:
        """Step 5: per-chiplet manufacturing CFP (design slot left empty)."""
        chiplet_reports: List[ChipletCarbonReport] = []
        manufacturing_total = 0.0
        for chiplet in system.chiplets:
            mfg = self.manufacturing.cfp_for_area(
                geometry.final_areas[chiplet.name],
                chiplet.node,
                chiplet.design_type,
                name=chiplet.name,
            )
            manufacturing_total += mfg.total_g
            chiplet_reports.append(
                ChipletCarbonReport(
                    name=chiplet.name,
                    node_nm=float(chiplet.node),
                    design_type=chiplet.design_type,  # type: ignore[arg-type]
                    base_area_mm2=geometry.base_areas[chiplet.name],
                    overhead_area_mm2=geometry.overhead_areas[chiplet.name],
                    total_area_mm2=geometry.final_areas[chiplet.name],
                    manufacturing=mfg,
                    design=None,  # type: ignore[arg-type]  # filled by the caller
                )
            )
        return chiplet_reports, manufacturing_total

    def design_report(self, system: ChipletSystem) -> SystemDesignResult:
        """Step 6: amortised design CFP of the whole system (Eq. 12)."""
        design_entries = [
            {
                "name": chiplet.name,
                "transistors": chiplet.transistor_count(self.scaling),
                "node": chiplet.node,
                "manufactured_volume": (
                    chiplet.manufactured_volume
                    if chiplet.manufactured_volume is not None
                    else system.system_volume
                ),
                "reused": chiplet.reused,
            }
            for chiplet in system.chiplets
        ]
        return self.design_model.system_design_cfp(
            design_entries,
            iterations=system.design_iterations,
            system_volume=system.system_volume,
            has_inter_die_comm=not system.is_monolithic,
        )

    # -- public API ---------------------------------------------------------------
    def estimate(self, system: ChipletSystem) -> SystemCarbonReport:
        """Full carbon report for ``system``."""
        packaging_model = self.build_packaging_model(system)

        # 1–3. areas, overheads, floorplan ------------------------------------------
        geometry = self.compute_geometry(system, packaging_model)

        # 4. packaging / HI overheads ---------------------------------------------------
        packaging_result = packaging_model.evaluate(
            geometry.packaged_chiplets, geometry.floorplan
        )

        # 5. manufacturing -----------------------------------------------------------------
        chiplet_reports, manufacturing_total = self.manufacturing_reports(system, geometry)

        # 6. design ------------------------------------------------------------------------
        design_result = self.design_report(system)
        design_by_name = {r.name: r for r in design_result.chiplets}
        chiplet_reports = [
            dataclasses.replace(report, design=design_by_name[report.name])
            for report in chiplet_reports
        ]
        design_total = design_result.total_amortised_cfp_g if self.config.include_design else 0.0

        # 7. operational --------------------------------------------------------------------
        operating = self._effective_operating_spec(
            system, geometry.final_areas, packaging_result.comm_power_w
        )
        operational = self.operational_model.evaluate(operating)

        # 8. totals ----------------------------------------------------------------------------
        hi_total = packaging_result.total_cfp_g
        embodied = manufacturing_total + design_total + hi_total
        total = embodied + operational.lifetime_cfp_g

        return SystemCarbonReport(
            system_name=system.name,
            node_configuration=system.node_configuration(),
            chiplets=tuple(chiplet_reports),
            packaging=packaging_result,
            design=design_result,
            operational=operational,
            manufacturing_cfp_g=manufacturing_total,
            design_cfp_g=design_total,
            hi_cfp_g=hi_total,
            embodied_cfp_g=embodied,
            operational_cfp_g=operational.lifetime_cfp_g,
            total_cfp_g=total,
        )

    # -- helpers -----------------------------------------------------------------------
    def _effective_operating_spec(
        self,
        system: ChipletSystem,
        final_areas: Dict[str, float],
        comm_power_w: float,
    ) -> OperatingSpec:
        """Fill derived fields of the operating spec.

        When the spec has no measured power/energy and no explicit
        leakage/capacitance, they are derived by summing the per-chiplet
        contributions at each chiplet's node; the supply voltage defaults to
        the area-weighted average of the chiplet nodes' nominal Vdd (which
        is how older-node chiplets raise the operational footprint).
        """
        spec = system.operating.with_comm_power(comm_power_w)
        if spec.annual_energy_kwh is not None or spec.average_power_w is not None:
            return spec

        total_area = sum(final_areas.values())
        updates: Dict[str, object] = {}
        if spec.leakage_current_a is None:
            updates["leakage_current_a"] = sum(
                self.energy_model.leakage_current_a(final_areas[c.name], c.node)
                for c in system.chiplets
            )
        if spec.load_capacitance_f is None:
            updates["load_capacitance_f"] = sum(
                self.energy_model.load_capacitance_f(final_areas[c.name], c.node)
                for c in system.chiplets
            )
        if spec.vdd_v is None and total_area > 0:
            updates["vdd_v"] = sum(
                self.table.get(c.node).vdd_v * final_areas[c.name]
                for c in system.chiplets
            ) / total_area
        if updates:
            spec = dataclasses.replace(spec, **updates)
        return spec
