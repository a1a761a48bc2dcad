"""Design-space exploration helpers: disaggregation and product curves.

These utilities implement the experiments of Sections V and VI:

* :func:`node_configuration_sweep` — sweep technology-node assignments of a
  chiplet system ("technology mix-and-match", Fig. 7).
* :func:`split_block` / :func:`nc_sweep` — split a large block into ``Nc``
  equal chiplets and sweep ``Nc`` (Figs. 9, 10, 15b).
* :func:`monolithic_counterpart` — collapse a chiplet system back into a
  single monolithic die for the HI-vs-monolithic comparisons.
* :func:`carbon_delay_product`, :func:`carbon_power_product`,
  :func:`carbon_area_product` — the Pareto metrics of Figs. 13 and 14.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.chiplet import Chiplet
from repro.core.estimator import EcoChip
from repro.core.results import SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.packaging.monolithic import MonolithicSpec
from repro.packaging.registry import PackagingSpec
from repro.technology.scaling import DesignType

NodeConfig = Tuple[float, ...]


# ---------------------------------------------------------------------------
# Technology mix-and-match
# ---------------------------------------------------------------------------
def node_configuration_sweep(
    system: ChipletSystem,
    configurations: Iterable[Sequence[float]],
    estimator: Optional[EcoChip] = None,
) -> "Dict[NodeConfig, SystemCarbonReport]":
    """Estimate ``system`` for every node configuration in ``configurations``.

    Each configuration assigns one node per chiplet (in chiplet order), like
    the paper's three-tuples ``(digital, memory, analog)``.
    """
    estimator = estimator if estimator is not None else EcoChip()
    results: Dict[NodeConfig, SystemCarbonReport] = {}
    for config in configurations:
        nodes = tuple(float(n) for n in config)
        results[nodes] = estimator.estimate(system.with_nodes(*nodes))
    return results


def all_node_configurations(
    node_choices: Sequence[float], chiplet_count: int
) -> List[NodeConfig]:
    """Every assignment of ``node_choices`` to ``chiplet_count`` chiplets."""
    if chiplet_count < 1:
        raise ValueError(f"chiplet count must be >= 1, got {chiplet_count}")
    return list(itertools.product(map(float, node_choices), repeat=chiplet_count))


# ---------------------------------------------------------------------------
# Monolithic <-> chiplets
# ---------------------------------------------------------------------------
def monolithic_counterpart(
    system: ChipletSystem,
    node: Optional[float] = None,
    name_suffix: str = "-monolithic",
) -> ChipletSystem:
    """Collapse ``system`` into a single monolithic die.

    The monolithic die keeps every block's transistor count; blocks keep
    their own design type for density purposes but are merged into a single
    die at ``node`` (default: the most advanced node in the system).  The
    result has no advanced packaging.
    """
    target = node if node is not None else min(float(c.node) for c in system.chiplets)
    merged = tuple(
        chiplet.retargeted(target) for chiplet in system.chiplets
    )
    # A monolithic SoC is modelled as its blocks fused into one die: the
    # yield must be evaluated over the total area, which the estimator does
    # when a single Chiplet carries the whole area.  Blocks of different
    # design types have different densities, so the fused transistor count
    # is converted to a logic-equivalent area by keeping per-block areas.
    from repro.technology.scaling import AreaScalingModel  # local to avoid cycle at import time

    scaling = AreaScalingModel()
    total_area = sum(c.area_at_node(scaling, target) for c in merged)
    fused = Chiplet(
        name=f"{system.name}{name_suffix}-die",
        design_type=DesignType.LOGIC,
        node=target,
        area_mm2=total_area,
        area_reference_node=target,
    )
    return ChipletSystem(
        name=f"{system.name}{name_suffix}",
        chiplets=(fused,),
        packaging=MonolithicSpec(),
        operating=system.operating,
        system_volume=system.system_volume,
        design_iterations=system.design_iterations,
    )


def split_block(
    block: Chiplet,
    parts: int,
    name_template: str = "{name}-{index}",
) -> Tuple[Chiplet, ...]:
    """Split ``block`` into ``parts`` equal chiplets (same node and type)."""
    if parts < 1:
        raise ValueError(f"part count must be >= 1, got {parts}")
    if parts == 1:
        return (block,)
    chiplets = []
    for index in range(parts):
        name = name_template.format(name=block.name, index=index)
        if block.transistors is not None:
            piece = Chiplet(
                name=name,
                design_type=block.design_type,
                node=block.node,
                transistors=block.transistors / parts,
                reused=block.reused,
                manufactured_volume=block.manufactured_volume,
            )
        else:
            piece = Chiplet(
                name=name,
                design_type=block.design_type,
                node=block.node,
                area_mm2=block.area_mm2 / parts,  # type: ignore[operator]
                area_reference_node=block.area_reference_node,
                reused=block.reused,
                manufactured_volume=block.manufactured_volume,
            )
        chiplets.append(piece)
    return tuple(chiplets)


def nc_sweep(
    system: ChipletSystem,
    block_name: str,
    counts: Iterable[int],
    packaging: Optional[PackagingSpec] = None,
    estimator: Optional[EcoChip] = None,
) -> "Dict[int, SystemCarbonReport]":
    """Split ``block_name`` of ``system`` into ``Nc`` chiplets and estimate.

    Reproduces the Fig. 10 / Fig. 15(b) experiments where the GA102's large
    digital block is split into a growing number of chiplets while the other
    chiplets stay fixed.
    """
    estimator = estimator if estimator is not None else EcoChip()
    target_block = system.chiplet(block_name)
    others = [c for c in system.chiplets if c.name != block_name]
    results: Dict[int, SystemCarbonReport] = {}
    for count in counts:
        pieces = split_block(target_block, count)
        variant = system.with_chiplets(
            tuple(pieces) + tuple(others),
            name=f"{system.name}-Nc{count + len(others)}",
        )
        if packaging is not None:
            variant = variant.with_packaging(packaging)
        results[count] = estimator.estimate(variant)
    return results


# ---------------------------------------------------------------------------
# Product curves (Figs. 13, 14)
# ---------------------------------------------------------------------------
def carbon_delay_product(report: SystemCarbonReport, delay_s: float) -> float:
    """Carbon-delay product in kg·s (Fig. 13a)."""
    if delay_s < 0:
        raise ValueError(f"delay must be non-negative, got {delay_s}")
    return report.total_cfp_kg * delay_s


def carbon_power_product(report: SystemCarbonReport, power_w: Optional[float] = None) -> float:
    """Carbon-power product in kg·W (Figs. 13b, 14a).

    ``power_w`` defaults to the operational model's total ON-power.
    """
    power = power_w if power_w is not None else report.operational.energy.total_power_w
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    return report.total_cfp_kg * power


def carbon_area_product(report: SystemCarbonReport, area_mm2: Optional[float] = None) -> float:
    """Carbon-area product in kg·mm² (Figs. 13c, 14b).

    ``area_mm2`` defaults to the total manufactured silicon area.
    """
    area = area_mm2 if area_mm2 is not None else report.total_silicon_area_mm2
    if area < 0:
        raise ValueError(f"area must be non-negative, got {area}")
    return report.total_cfp_kg * area
