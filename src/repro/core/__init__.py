"""Core ECO-CHIP API: system description, estimator and design-space tools.

Typical usage::

    from repro.core import Chiplet, ChipletSystem, EcoChip
    from repro.packaging import RDLFanoutSpec
    from repro.operational import OperatingSpec

    system = ChipletSystem(
        name="my-soc",
        chiplets=(
            Chiplet("compute", "logic", node=7, area_mm2=150),
            Chiplet("cache", "memory", node=10, area_mm2=60),
            Chiplet("io", "analog", node=14, area_mm2=40),
        ),
        packaging=RDLFanoutSpec(layers=6, technology_nm=65),
        operating=OperatingSpec(lifetime_years=2, duty_cycle=0.2, average_power_w=30),
    )
    report = EcoChip().estimate(system)
    print(report.summary())
"""

from repro.core.chiplet import Chiplet
from repro.core.disaggregation import (
    carbon_area_product,
    carbon_delay_product,
    carbon_power_product,
    monolithic_counterpart,
    nc_sweep,
    node_configuration_sweep,
    split_block,
)
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.core.explorer import pareto_front
from repro.core.results import ChipletCarbonReport, SystemCarbonReport
from repro.core.system import ChipletSystem

__all__ = [
    "pareto_front",
    "Chiplet",
    "ChipletSystem",
    "EcoChip",
    "EstimatorConfig",
    "ChipletCarbonReport",
    "SystemCarbonReport",
    "carbon_area_product",
    "carbon_delay_product",
    "carbon_power_product",
    "monolithic_counterpart",
    "nc_sweep",
    "node_configuration_sweep",
    "split_block",
]
