"""ECO-CHIP reproduction: carbon-footprint estimation of chiplet-based systems.

This library reproduces "ECO-CHIP: Estimation of Carbon Footprint of
Chiplet-based Architectures for Sustainable VLSI" (HPCA 2024).  The
documented public entry point is the :class:`Session` facade, which unifies
single-system estimation, declarative scenario sweeps and design-space
exploration behind one object::

    from repro import Session

    session = Session(jobs=4)
    report = session.estimate("ga102-3chiplet")
    result = session.sweep({"testcases": ["ga102-3chiplet"],
                            "wafer_diameter_mm": [300, 450]})

Any estimator knob is sweepable through the typed axis registry
(:mod:`repro.axes`): built-in axes cover wafer diameter, defect density,
router spec and operating conditions, and :func:`register_axis` plugs in
out-of-tree knobs.  The lower-level building blocks stay re-exported here::

    from repro import Chiplet, ChipletSystem, EcoChip, OperatingSpec
    from repro.packaging import RDLFanoutSpec

See :mod:`repro.core` for the estimator, :mod:`repro.testcases` for the
paper's industry testcases and :mod:`repro.cli` for the command-line tool.
"""

from repro.axes import Axis, axis_names, register_axis
from repro.api import ExploreResult, Session, SweepResult
from repro.search import (
    SearchConstraint,
    SearchObjective,
    SearchResult,
    SearchSpec,
    register_strategy,
    strategy_names,
)
from repro.core.chiplet import Chiplet
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.core.results import ChipletCarbonReport, SystemCarbonReport
from repro.core.system import ChipletSystem
from repro.operational.energy import OperatingSpec
from repro.plugins import PLUGIN_API_VERSION
from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, TechnologyNode, TechnologyTable
from repro.technology.scaling import DesignType

__version__ = "1.1.0"

__all__ = [
    "Axis",
    "axis_names",
    "register_axis",
    "Session",
    "SweepResult",
    "ExploreResult",
    "SearchConstraint",
    "SearchObjective",
    "SearchResult",
    "SearchSpec",
    "register_strategy",
    "strategy_names",
    "PLUGIN_API_VERSION",
    "Chiplet",
    "ChipletSystem",
    "EcoChip",
    "EstimatorConfig",
    "ChipletCarbonReport",
    "SystemCarbonReport",
    "OperatingSpec",
    "DEFAULT_TECHNOLOGY_TABLE",
    "TechnologyNode",
    "TechnologyTable",
    "DesignType",
    "__version__",
]
