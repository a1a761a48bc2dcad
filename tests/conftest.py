"""Shared fixtures and hypothesis profiles for the ECO-CHIP test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.axes import registry as axis_registry
from repro.core.estimator import EcoChip, EstimatorConfig
from repro.manufacturing.chip import ChipManufacturingModel
from repro.manufacturing.yield_model import YieldModel
from repro.packaging import registry as packaging_registry
from repro.technology.nodes import DEFAULT_TECHNOLOGY_TABLE, TechnologyTable
from repro.technology.scaling import AreaScalingModel
from repro.testcases import a15, arvr, emr, ga102

# -- hypothesis profiles -------------------------------------------------------
# The ``ci`` profile is deterministic: ``derandomize=True`` derives every
# example sequence from the test function itself (a fixed seed), so CI runs —
# and plain local runs, which default to the same profile — cannot flake on a
# lucky or unlucky draw.  Select ``HYPOTHESIS_PROFILE=dev`` to explore fresh
# random examples locally.
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


# -- registry isolation ----------------------------------------------------------
#: The extension registries' module-level tables (reset in place, since
#: other modules hold references to the dict objects).
_REGISTRY_TABLES = (
    axis_registry._AXES,
    packaging_registry._ENTRIES,
    packaging_registry._PLUGIN_MODULES,
    packaging_registry._MODEL_FOR_SPEC,
    packaging_registry.PACKAGING_SPECS,
    packaging_registry._CANONICAL_NAMES,
)
#: The tables as importing ``repro`` leaves them: the built-ins only.
_BUILTIN_REGISTRIES = [dict(table) for table in _REGISTRY_TABLES]
_BUILTIN_ENTRY_POINTS_LOADED = packaging_registry._entry_points_loaded


def _reset_registries() -> None:
    for table, builtin in zip(_REGISTRY_TABLES, _BUILTIN_REGISTRIES):
        table.clear()
        table.update(builtin)
    packaging_registry._entry_points_loaded = _BUILTIN_ENTRY_POINTS_LOADED


@pytest.fixture(autouse=True)
def builtin_registries():
    """Start and end every test with only the built-in axes and packaging.

    Temporary axes a test registers, plugin modules it loads, and the
    test-only axes a module registers while it is collected would otherwise
    leak into later tests (they show up in unknown-axis messages).  A test
    that needs a plugin asks for its fixture, which registers it again.
    """
    _reset_registries()
    yield
    _reset_registries()


@pytest.fixture(scope="session")
def table() -> TechnologyTable:
    """The default technology table (3–65 nm)."""
    return DEFAULT_TECHNOLOGY_TABLE


@pytest.fixture(scope="session")
def scaling(table) -> AreaScalingModel:
    """Area scaling model over the default table."""
    return AreaScalingModel(table=table)


@pytest.fixture(scope="session")
def yield_model(table) -> YieldModel:
    """Yield model over the default table."""
    return YieldModel(table=table)


@pytest.fixture(scope="session")
def manufacturing(table) -> ChipManufacturingModel:
    """Manufacturing model with the paper's defaults (coal fab, 450 mm wafer)."""
    return ChipManufacturingModel(table=table)


@pytest.fixture(scope="session")
def estimator() -> EcoChip:
    """Estimator with the paper's default configuration."""
    return EcoChip()


@pytest.fixture(scope="session")
def estimator_no_waste() -> EcoChip:
    """Estimator that excludes wafer-periphery waste (Fig. 3b comparison)."""
    return EcoChip(config=EstimatorConfig(include_wafer_waste=False))


# -- testcase systems (session-scoped: they are immutable dataclasses) ---------
@pytest.fixture(scope="session")
def ga102_monolithic():
    """Monolithic GA102 at 7 nm."""
    return ga102.monolithic(7)


@pytest.fixture(scope="session")
def ga102_3chiplet():
    """3-chiplet GA102 at (7, 14, 10) with RDL fanout."""
    return ga102.three_chiplet((7, 14, 10))


@pytest.fixture(scope="session")
def a15_monolithic():
    """Monolithic A15 at 7 nm."""
    return a15.monolithic(7)


@pytest.fixture(scope="session")
def a15_3chiplet():
    """3-chiplet A15 at (7, 14, 10) with RDL fanout."""
    return a15.three_chiplet((7, 14, 10))


@pytest.fixture(scope="session")
def emr_2chiplet():
    """Native 2-chiplet EMR with EMIB."""
    return emr.two_chiplet()


@pytest.fixture(scope="session")
def emr_monolithic():
    """Hypothetical monolithic EMR."""
    return emr.monolithic()


@pytest.fixture(scope="session")
def arvr_small():
    """AR/VR accelerator, 1K series, one SRAM tier."""
    return arvr.system("3D-1K-2MB")


@pytest.fixture(scope="session")
def arvr_large():
    """AR/VR accelerator, 1K series, four SRAM tiers."""
    return arvr.system("3D-1K-8MB")


# -- out-of-tree plugins -------------------------------------------------------
#: Plugin module name -> the registry entries its import added, per table.
_PLUGIN_ENTRIES = {}


def _load_plugin(name: str, filename: str):
    """``examples/<filename>`` imported once as an out-of-tree plugin.

    Loaded from its file path under a stable module name (so every use
    shares one module and one set of class objects instead of re-executing
    the file), exactly like a real plugin module that is not on
    ``sys.path``.  The registry entries the first import added are recorded
    and put back on every later use, since each test starts from the
    built-in registries.
    """
    import importlib.util
    import pathlib
    import sys

    if name in sys.modules:
        for table, entries in zip(_REGISTRY_TABLES, _PLUGIN_ENTRIES[name]):
            table.update(entries)
        return sys.modules[name]
    before = [dict(table) for table in _REGISTRY_TABLES]
    path = pathlib.Path(__file__).resolve().parents[1] / "examples" / filename
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # registered classes and callables resolve __module__
    spec.loader.exec_module(module)
    _PLUGIN_ENTRIES[name] = [
        {key: value for key, value in table.items() if key not in saved}
        for table, saved in zip(_REGISTRY_TABLES, before)
    ]
    return module


@pytest.fixture
def custom_packaging():
    """``examples/custom_packaging.py``, registered as an out-of-tree plugin."""
    return _load_plugin("custom_packaging_example", "custom_packaging.py")


@pytest.fixture
def custom_axis():
    """``examples/custom_axis.py``, registered as an out-of-tree axis plugin.

    Worker processes re-import the module by its recorded source file.
    """
    return _load_plugin("custom_axis_example", "custom_axis.py")
