"""An out-of-tree packaging architecture plugged in through the registry.

This example defines a packaging architecture that does **not** ship with
``repro.packaging``: an organic-substrate / fan-out-bridge hybrid.  Chiplets
sit on a coarse organic fan-out substrate (cheap, low-energy build-up
layers patterned over the whole package) while small silicon bridge strips
embedded under adjacent die edges provide fine-pitch die-to-die links — a
mix of the RDL-fanout and EMIB recipes.

It demonstrates the full plugin contract:

* a frozen spec dataclass (``OrganicBridgeSpec``) with validated fields,
* a :class:`~repro.packaging.base.PackagingModel` subclass implementing
  ``evaluate`` (scalar pipeline) and ``compile_terms`` (batch fast path)
  side by side, declaring ``needs_adjacencies`` so the compiler extracts
  chiplet adjacencies for it,
* one :func:`~repro.packaging.registry.register_packaging` call that makes
  the architecture available everywhere at once — ``spec_from_dict``,
  sweep specs, the sweep engine and ``eco-chip --list-packaging``
  (registration rejects a model without ``compile_terms``).

Running the script sweeps a GA102-class system over the new architecture
on the compiled batch engine and verifies the records are bit-identical
(exact float equality) to the scalar reference oracle — the same
acceptance bar the built-in architectures meet.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, ClassVar, Dict, Optional, Sequence, Tuple

from repro.floorplan.slicing import FloorplanResult
from repro.noc.orion import RouterSpec
from repro.packaging import (
    PackagedChiplet,
    PackagingModel,
    PackagingResult,
    SiliconBridgeTerms,
    register_packaging,
)
from repro.packaging.base import SourceLike
from repro.technology.nodes import NodeKey, TechnologyTable

#: Defect-density scale of the coarse organic build-up substrate.
_ORGANIC_DEFECT_SCALE = 0.3

#: Energy scale of an organic build-up layer relative to a fine RDL layer.
_ORGANIC_ENERGY_SCALE = 0.25

#: Defect-density scale of the fine-pitch bridge strips.
_BRIDGE_DEFECT_SCALE = 1.5

#: Cavity formation, placement and bonding energy per bridge strip (kWh).
_EMBEDDING_KWH_PER_BRIDGE = 0.03


@dataclasses.dataclass(frozen=True)
class OrganicBridgeSpec:
    """Configuration of the organic-substrate / fan-out-bridge hybrid.

    Attributes:
        substrate_layers: Organic build-up layers across the package.
        substrate_technology_nm: Node the substrate is patterned in.
        bridge_layers: BEOL metal layers inside each bridge strip.
        bridge_technology_nm: Node the bridge strips are manufactured in.
        bridge_area_mm2: Area of one bridge strip.
        bridge_range_mm: Die-edge length one strip can serve.
        phy_lanes: Die-to-die PHY lanes per chiplet interface.
    """

    #: Sweepable parameter axes: sweep specs may expand any of these via a
    #: packaging entry's ``params`` key (the registry validates names).
    SWEEP_PARAMS: ClassVar[Tuple[str, ...]] = (
        "substrate_layers",
        "substrate_technology_nm",
        "bridge_layers",
        "bridge_range_mm",
        "phy_lanes",
    )

    substrate_layers: int = 5
    substrate_technology_nm: float = 65.0
    bridge_layers: int = 2
    bridge_technology_nm: float = 40.0
    bridge_area_mm2: float = 2.5
    bridge_range_mm: float = 3.0
    phy_lanes: int = 32

    def __post_init__(self) -> None:
        if not 1 <= self.substrate_layers <= 12:
            raise ValueError(
                f"substrate layer count {self.substrate_layers} outside [1, 12]"
            )
        if self.substrate_technology_nm <= 0 or self.bridge_technology_nm <= 0:
            raise ValueError("technology nodes must be positive")
        if not 1 <= self.bridge_layers <= 8:
            raise ValueError(f"bridge layer count {self.bridge_layers} outside [1, 8]")
        if self.bridge_area_mm2 <= 0 or self.bridge_range_mm <= 0:
            raise ValueError("bridge area and range must be positive")
        if self.phy_lanes < 1:
            raise ValueError(f"PHY lane count must be >= 1, got {self.phy_lanes}")


class OrganicBridgeModel(PackagingModel):
    """Organic fan-out substrate plus embedded fine-pitch bridge strips."""

    architecture = "organic_bridge"
    uses_noc = False
    needs_adjacencies = True  # bridge strips are counted per shared die edge

    def __init__(
        self,
        spec: Optional[OrganicBridgeSpec] = None,
        table: Optional[TechnologyTable] = None,
        package_carbon_source: SourceLike = "coal",
        router_spec: Optional[RouterSpec] = None,
    ):
        super().__init__(
            table=table,
            package_carbon_source=package_carbon_source,
            router_spec=router_spec,
        )
        self.spec = spec if spec is not None else OrganicBridgeSpec()

    # -- bridge counting ---------------------------------------------------------
    def bridge_count(self, floorplan: FloorplanResult) -> int:
        """One strip per adjacent pair plus extras for long shared edges."""
        total = 0
        for _, _, edge in floorplan.adjacencies:
            if edge > 0:
                total += max(1, int(math.ceil(edge / self.spec.bridge_range_mm)))
        return total

    # -- per-chiplet overheads ---------------------------------------------------
    def chiplet_area_overhead_mm2(
        self, chiplet: PackagedChiplet, chiplet_count: int
    ) -> float:
        """Die-to-die PHY area added inside each chiplet."""
        if chiplet_count <= 1:
            return 0.0
        return self.phy_model.area_mm2(chiplet.node, lanes=self.spec.phy_lanes)

    # -- scalar pipeline -----------------------------------------------------------
    def evaluate(
        self,
        chiplets: Sequence[PackagedChiplet],
        floorplan: FloorplanResult,
    ) -> PackagingResult:
        spec = self.spec
        area = floorplan.package_area_mm2

        # Fine-pitch bridge strips under each shared die edge.
        record = self.table.get(spec.bridge_technology_nm)
        bridge_yield = self.substrate_yield(
            spec.bridge_area_mm2, spec.bridge_technology_nm,
            defect_scale=_BRIDGE_DEFECT_SCALE,
        )
        patterning_kwh = (
            spec.bridge_layers
            * record.epla_bridge_kwh_per_cm2
            * (spec.bridge_area_mm2 / 100.0)
        )
        per_bridge_g = (
            (patterning_kwh + _EMBEDDING_KWH_PER_BRIDGE)
            * self.package_carbon_intensity_g_per_kwh
            / bridge_yield
        )
        n_bridges = self.bridge_count(floorplan)
        bridges_cfp = n_bridges * per_bridge_g

        # Coarse organic fan-out substrate across the whole package.
        substrate_yield = self.substrate_yield(
            area, spec.substrate_technology_nm, defect_scale=_ORGANIC_DEFECT_SCALE
        )
        substrate_cfp = (
            self.rdl_layer_cfp_g(
                area,
                spec.substrate_technology_nm,
                spec.substrate_layers,
                energy_scale=_ORGANIC_ENERGY_SCALE,
            )
            / substrate_yield
        )

        package_cfp = bridges_cfp + substrate_cfp
        package_yield = substrate_yield * bridge_yield**n_bridges

        overheads: Dict[str, float] = {}
        comm_power = 0.0
        if len(chiplets) > 1:
            for chiplet in chiplets:
                overheads[chiplet.name] = self.phy_model.area_mm2(
                    chiplet.node, lanes=spec.phy_lanes
                )
                comm_power += self.phy_model.average_power_w(
                    chiplet.node, lanes=spec.phy_lanes
                )

        detail = {
            "bridge_count": float(n_bridges),
            "bridge_yield": bridge_yield,
            "substrate_layers": float(spec.substrate_layers),
            "substrate_cfp_g": substrate_cfp,
            "bridges_cfp_g": bridges_cfp,
        }
        return self.result_totals(
            architecture=self.architecture,
            package_cfp_g=package_cfp,
            comm_cfp_g=0.0,
            floorplan=floorplan,
            package_yield=package_yield,
            comm_power_w=comm_power,
            chiplet_overhead_mm2=overheads,
            detail=detail,
        )

    # -- batch fast path ------------------------------------------------------------
    def compile_terms(
        self,
        node_keys: Tuple[NodeKey, ...],
        area_values: Tuple[float, ...],
        floorplan: FloorplanResult,
        phy_power: Callable[[NodeKey], float],
        router_power: Callable[[NodeKey], float],
    ) -> SiliconBridgeTerms:
        """Closed form of :meth:`evaluate` (same operation order).

        The hybrid shares the EMIB closed-form shape (per-bridge energy /
        yield plus substrate energy / yield), so it reuses the built-in
        :class:`SiliconBridgeTerms` with its own coefficients.
        """
        del area_values, router_power
        spec = self.spec
        area = floorplan.package_area_mm2
        record = self.table.get(spec.bridge_technology_nm)
        bridge_yield = self.substrate_yield(
            spec.bridge_area_mm2, spec.bridge_technology_nm,
            defect_scale=_BRIDGE_DEFECT_SCALE,
        )
        patterning_kwh = (
            spec.bridge_layers
            * record.epla_bridge_kwh_per_cm2
            * (spec.bridge_area_mm2 / 100.0)
        )
        kwh_per_bridge = patterning_kwh + _EMBEDDING_KWH_PER_BRIDGE
        n_bridges = self.bridge_count(floorplan)
        substrate_yield = self.substrate_yield(
            area, spec.substrate_technology_nm, defect_scale=_ORGANIC_DEFECT_SCALE
        )
        substrate_kwh = self.rdl_layer_energy_kwh(
            area, spec.substrate_technology_nm, spec.substrate_layers,
            _ORGANIC_ENERGY_SCALE,
        )
        comm_power = 0.0
        if len(node_keys) > 1:
            for node in node_keys:
                comm_power += phy_power(node)
        return SiliconBridgeTerms(
            self.architecture, area, comm_power,
            kwh_per_bridge, bridge_yield, n_bridges, substrate_kwh, substrate_yield,
        )


#: One registration call plugs the architecture into every layer: the
#: scalar estimator, ``spec_from_dict`` / sweep specs, the sweep engine
#: and the CLI listings.
register_packaging(
    "organic_bridge",
    OrganicBridgeSpec,
    OrganicBridgeModel,
    aliases=("ofb", "organic_fanout_bridge"),
)


def main() -> None:
    from repro.sweep.engine import SweepEngine, reference_records
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec.from_dict(
        {
            "name": "custom-packaging-demo",
            "testcases": ["ga102-3chiplet"],
            "nodes": [7, 14],
            "packaging": [
                "organic_bridge",
                # Per-architecture parameter axes: the registry expands this
                # entry into one concrete config per (layers, range) pair.
                {
                    "type": "ofb",
                    "params": {
                        "substrate_layers": [5, 7],
                        "bridge_range_mm": [2.0, 3.0],
                    },
                },
                "rdl_fanout",
                "silicon_bridge",
            ],
            "carbon_sources": ["coal", "renewable_mix"],
        }
    )
    scenarios = spec.expand()

    scalar = reference_records(scenarios)
    batch = list(SweepEngine(jobs=1).iter_records(scenarios))
    assert scalar == batch, "batch engine diverged from the scalar pipeline"
    # Worker processes auto-import this plugin module (the engine ships the
    # registry's plugin-module snapshot through the pool initializer), so
    # parallel sweeps see the out-of-tree architecture too.
    parallel = list(SweepEngine(jobs=2).iter_records(scenarios))
    assert parallel == scalar, "parallel workers diverged from the serial pipeline"
    print(
        f"{len(scenarios)} scenarios: scalar, batch and jobs=2 records are "
        "bit-identical for the plugged-in architecture"
    )

    by_packaging: Dict[str, Dict[str, float]] = {}
    for record in scalar:
        best = by_packaging.get(record["packaging"])
        if best is None or record["total_carbon_g"] < best["total_carbon_g"]:
            by_packaging[record["packaging"]] = record
    print(f"\n{'packaging':<20} {'best Ctot (kg)':>14} {'C_HI (kg)':>12} nodes")
    for name, record in sorted(by_packaging.items()):
        nodes = ",".join(f"{n:g}" for n in record["nodes"])
        print(
            f"{name:<20} {record['total_carbon_g'] / 1000.0:>14.2f} "
            f"{record['hi_carbon_g'] / 1000.0:>12.2f} ({nodes})"
        )


if __name__ == "__main__":
    main()
