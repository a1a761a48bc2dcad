"""Shared interfaces of the packaging models.

Every packaging architecture implements the same protocol used by
:class:`repro.core.estimator.EcoChip` and the compiled batch fast path
(:mod:`repro.fastpath`):

1. :meth:`PackagingModel.chiplet_area_overhead_mm2` — extra silicon that the
   architecture adds *inside* each chiplet (NoC routers for passive
   interposers, die-to-die PHYs for RDL/EMIB).  The estimator folds this
   into the chiplet area before computing its manufacturing CFP, so the
   overhead correctly degrades the chiplet yield as described in
   Section III-D(2).
2. :meth:`PackagingModel.evaluate` — CFP of the package substrate /
   interposer / bonding plus any communication circuitry charged to the
   package (routers on an active interposer), given the final chiplet areas
   and the floorplan.
3. :meth:`PackagingModel.compile_terms` — the same CFP flattened into
   scenario-independent closed-form :class:`PackagingTerms`, so the batch
   engine can re-evaluate the architecture at any packaging carbon
   intensity as plain arithmetic.  It is required: registration rejects a
   model without it.  ``compile_terms`` lives next to the
   ``evaluate`` formula it mirrors, and the two must stay bit-identical
   (exact float equality) — the parity tests in
   ``tests/integration/test_batch_parity.py`` enforce the contract.

Architectures additionally describe themselves through declarative class
attributes (:attr:`PackagingModel.needs_adjacencies`,
:attr:`PackagingModel.is_monolithic`, :attr:`PackagingModel.uses_noc`) so
the compiler and the estimator never special-case concrete classes: a new
architecture registered through
:func:`repro.packaging.registry.register_packaging` — even from outside
this package — is picked up by every layer the moment it registers.

The *spec dataclass* side of the contract is declarative too: every
``init`` field of a registered spec is a sweepable parameter axis that
sweep specs may expand over (``packaging: {type: ..., params: {field:
[v1, v2]}}``); a spec narrows the sweepable set with a ``SWEEP_PARAMS``
class attribute (a tuple of field names, validated at registration).  See
:func:`repro.packaging.registry.sweepable_params` and
:func:`repro.packaging.registry.expand_packaging_params`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.floorplan.slicing import FloorplanResult
from repro.manufacturing.cfpa import CFPAModel
from repro.manufacturing.yield_model import YieldModel, negative_binomial_yield
from repro.noc.orion import OrionRouterModel, RouterSpec
from repro.noc.phy import PhyModel
from repro.technology.carbon_sources import CarbonSource, carbon_intensity
from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, NodeKey, TechnologyTable
from repro.technology.scaling import DesignType

SourceLike = Union[CarbonSource, str, float, int]

#: Same constant the CFPA breakdown uses for the per-cm² -> per-mm² step.
_TO_MM2 = 1.0 / 100.0


@dataclasses.dataclass(frozen=True)
class PackagedChiplet:
    """Minimal description of a chiplet as seen by the packaging models.

    Attributes:
        name: Chiplet name.
        area_mm2: Final die area (including any per-chiplet overheads).
        node: Technology node of the chiplet.
        design_type: Block flavour of the chiplet.
    """

    name: str
    area_mm2: float
    node: float
    design_type: DesignType = DesignType.LOGIC


@dataclasses.dataclass(frozen=True)
class PackagingResult:
    """CFP overheads of a packaging architecture (the ``C_HI`` breakdown).

    All carbon values are grams of CO2-equivalent per packaged system.

    Attributes:
        architecture: Short name of the architecture ("rdl_fanout", …).
        package_cfp_g: Substrate / interposer / bonding footprint
            (``Cpackage`` including whitespace, i.e. evaluated over the full
            package area produced by the floorplanner).
        comm_cfp_g: Communication circuitry charged to the package
            (``Cmfg,comm`` for active interposers; zero when the routers/PHYs
            live inside the chiplets and are therefore part of ``Cmfg``).
        total_cfp_g: ``package_cfp_g + comm_cfp_g``.
        package_area_mm2: Substrate / interposer area used.
        whitespace_area_mm2: Whitespace inside the package outline.
        package_yield: Yield of manufacturing/assembling the package.
        comm_power_w: Operational power overhead of inter-die communication
            (router + PHY power), consumed by the operational model.
        chiplet_overhead_mm2: Per-chiplet silicon overhead that was folded
            into the chiplet areas (for reporting).
        detail: Architecture-specific scalar metrics (bridge count, bond
            count, layer count, ...).
    """

    architecture: str
    package_cfp_g: float
    comm_cfp_g: float
    total_cfp_g: float
    package_area_mm2: float
    whitespace_area_mm2: float
    package_yield: float
    comm_power_w: float
    chiplet_overhead_mm2: Dict[str, float]
    detail: Dict[str, float]


class PackagingTerms:
    """Scenario-independent closed-form packaging terms of one template.

    Produced by :meth:`PackagingModel.compile_terms`; consumed by the batch
    fast path (:mod:`repro.fastpath`).  ``cfp(intensity)`` returns
    ``(package_cfp_g, comm_cfp_g)`` exactly as the architecture's
    ``evaluate`` would for that packaging carbon intensity — architectures
    subclass this with whatever intensity-free coefficients their formula
    needs.
    """

    __slots__ = ("architecture", "package_area_mm2", "comm_power_w")

    def __init__(self, architecture: str, package_area_mm2: float, comm_power_w: float):
        self.architecture = architecture
        self.package_area_mm2 = package_area_mm2
        self.comm_power_w = comm_power_w

    def cfp(self, intensity: float) -> Tuple[float, float]:
        """``(package_cfp_g, comm_cfp_g)`` at the given carbon intensity."""
        raise NotImplementedError


class PackagingModel(abc.ABC):
    """Abstract base class of all packaging-architecture models.

    Args:
        table: Technology table for node parameters.
        package_carbon_source: Energy source of the packaging/assembly fab
            (``Cpkg,src``); coal by default like the paper's experiments.
        router_spec: NoC router microarchitecture used when the architecture
            needs inter-die routers.
    """

    #: Short identifier used in results and the registry.
    architecture: str = "abstract"

    #: True when the architecture uses a NoC (interposers) rather than
    #: point-to-point PHY links (RDL fanout, EMIB).
    uses_noc: bool = False

    #: True when ``evaluate``/``compile_terms`` consume the floorplan's
    #: chiplet adjacencies (silicon bridges count bridges per shared edge).
    #: The compiler skips the adjacency extraction pass otherwise.
    needs_adjacencies: bool = False

    #: True for the zero-overhead monolithic baseline: systems packaged with
    #: such an architecture are treated as monolithic (no inter-die
    #: communication design effort) regardless of their chiplet count.
    is_monolithic: bool = False

    def __init__(
        self,
        table: Optional[TechnologyTable] = None,
        package_carbon_source: SourceLike = CarbonSource.COAL,
        router_spec: Optional[RouterSpec] = None,
    ):
        self.table = table if table is not None else DEFAULT_TECHNOLOGY_TABLE
        self.package_carbon_intensity_g_per_kwh = carbon_intensity(package_carbon_source)
        self.router_spec = router_spec if router_spec is not None else RouterSpec()
        self.yield_model = YieldModel(table=self.table)
        self.router_model = OrionRouterModel(table=self.table)
        self.phy_model = PhyModel(table=self.table)
        self.cfpa_model = CFPAModel(
            table=self.table,
            fab_carbon_source=self.package_carbon_intensity_g_per_kwh,
            yield_model=self.yield_model,
        )

    # -- protocol -----------------------------------------------------------------
    def chiplet_area_overhead_mm2(
        self, chiplet: PackagedChiplet, chiplet_count: int
    ) -> float:
        """Extra silicon area the architecture adds inside ``chiplet``.

        The default is zero; architectures that place routers or PHYs inside
        the chiplets override this.
        """
        del chiplet, chiplet_count
        return 0.0

    @abc.abstractmethod
    def evaluate(
        self,
        chiplets: Sequence[PackagedChiplet],
        floorplan: FloorplanResult,
    ) -> PackagingResult:
        """CFP of the package for the given chiplets and floorplan."""

    def compile_terms(
        self,
        node_keys: Tuple[NodeKey, ...],
        area_values: Tuple[float, ...],
        floorplan: FloorplanResult,
        phy_power: Callable[[NodeKey], float],
        router_power: Callable[[NodeKey], float],
    ) -> PackagingTerms:
        """Flatten :meth:`evaluate` into closed-form :class:`PackagingTerms`.

        The terms must replicate ``evaluate``'s exact floating-point
        operation order over the same inputs so batch results stay
        bit-identical to the scalar pipeline; keep this method next to the
        ``evaluate`` formula it mirrors and update both together.

        Args:
            node_keys: Per-chiplet technology nodes, in system order.
            area_values: Final per-chiplet areas (overheads folded in).
            floorplan: Slicing floorplan of those areas (adjacencies are
                populated only when :attr:`needs_adjacencies` is true).
            phy_power: ``node -> W`` of one die-to-die PHY at the spec's
                lane count (cached by the compiler; only call it when the
                spec has ``phy_lanes``).
            router_power: ``node -> W`` of one NoC router at the spec's
                injection rate (cached by the compiler; only call it when
                the spec has ``router_injection_rate``).

        Every registered architecture must override this method:
        :func:`repro.packaging.registry.register_packaging` rejects a model
        that inherits this default, because every sweep evaluates through
        the compiled batch engine.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement compile_terms()"
        )

    # -- shared helpers -------------------------------------------------------------
    def substrate_yield(self, area_mm2: float, node: NodeKey, defect_scale: float = 1.0) -> float:
        """Yield of patterning a substrate/interposer of ``area_mm2`` at ``node``.

        ``defect_scale`` scales the node defect density; fine-pitch
        structures (silicon bridges) use a value above 1, coarse organic
        build-up layers a value below 1.
        """
        record = self.table.get(node)
        return negative_binomial_yield(
            area_mm2,
            record.defect_density_per_cm2 * defect_scale,
            record.clustering_alpha,
        )

    def rdl_layer_energy_kwh(
        self,
        area_mm2: float,
        node: NodeKey,
        layers: float,
        energy_scale: float = 1.0,
    ) -> float:
        """Energy of patterning ``layers`` RDL metal layers over ``area_mm2``.

        The intensity-free factor of :meth:`rdl_layer_cfp_g`, used by
        ``compile_terms`` implementations to keep substrate terms in closed
        form over the packaging carbon intensity.
        """
        record = self.table.get(node)
        return layers * record.epla_rdl_kwh_per_cm2 * energy_scale * (area_mm2 / 100.0)

    def rdl_layer_cfp_g(
        self,
        area_mm2: float,
        node: NodeKey,
        layers: float,
        energy_scale: float = 1.0,
    ) -> float:
        """Carbon of patterning ``layers`` RDL metal layers over ``area_mm2``.

        This is the unyielded numerator of Eq. 9; callers divide by the
        appropriate substrate yield.
        """
        if layers < 0:
            raise ValueError(f"layer count must be non-negative, got {layers}")
        energy_kwh = self.rdl_layer_energy_kwh(area_mm2, node, layers, energy_scale)
        return energy_kwh * self.package_carbon_intensity_g_per_kwh

    def router_area_mm2(self, node: NodeKey, ports: Optional[int] = None) -> float:
        """Area of one NoC router at ``node`` (optionally overriding ports)."""
        spec = self.router_spec
        if ports is not None and ports != spec.ports:
            spec = dataclasses.replace(spec, ports=ports)
        return self.router_model.area_mm2(spec, node)

    def router_power_w(self, node: NodeKey, injection_rate: float = 0.3) -> float:
        """Total power of one NoC router at ``node``."""
        return self.router_model.estimate(
            self.router_spec, node, injection_rate=injection_rate
        ).total_power_w

    @staticmethod
    def result_totals(
        architecture: str,
        package_cfp_g: float,
        comm_cfp_g: float,
        floorplan: FloorplanResult,
        package_yield: float,
        comm_power_w: float,
        chiplet_overhead_mm2: Dict[str, float],
        detail: Dict[str, float],
    ) -> PackagingResult:
        """Assemble a :class:`PackagingResult` with the total filled in."""
        return PackagingResult(
            architecture=architecture,
            package_cfp_g=package_cfp_g,
            comm_cfp_g=comm_cfp_g,
            total_cfp_g=package_cfp_g + comm_cfp_g,
            package_area_mm2=floorplan.package_area_mm2,
            whitespace_area_mm2=floorplan.whitespace_area_mm2,
            package_yield=package_yield,
            comm_power_w=comm_power_w,
            chiplet_overhead_mm2=dict(chiplet_overhead_mm2),
            detail=dict(detail),
        )
