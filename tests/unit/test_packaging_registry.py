"""Unit tests for repro.packaging.registry."""

from __future__ import annotations

import pytest

from repro.packaging.bridge import SiliconBridgeModel, SiliconBridgeSpec
from repro.packaging.interposer import (
    ActiveInterposerModel,
    ActiveInterposerSpec,
    PassiveInterposerModel,
    PassiveInterposerSpec,
)
from repro.packaging.monolithic import MonolithicModel, MonolithicSpec
from repro.packaging.rdl import RDLFanoutModel, RDLFanoutSpec
from repro.packaging.registry import (
    PACKAGING_SPECS,
    build_packaging_model,
    describe_packaging,
    is_monolithic_spec,
    model_class_for_spec,
    packaging_names,
    register_packaging,
    registered_packaging,
    spec_from_dict,
)
from repro.packaging.threed import ThreeDStackModel, ThreeDStackSpec


class TestBuildPackagingModel:
    @pytest.mark.parametrize(
        "spec, model_cls",
        [
            (MonolithicSpec(), MonolithicModel),
            (RDLFanoutSpec(), RDLFanoutModel),
            (SiliconBridgeSpec(), SiliconBridgeModel),
            (PassiveInterposerSpec(), PassiveInterposerModel),
            (ActiveInterposerSpec(), ActiveInterposerModel),
            (ThreeDStackSpec(), ThreeDStackModel),
        ],
    )
    def test_spec_maps_to_matching_model(self, spec, model_cls):
        model = build_packaging_model(spec)
        assert isinstance(model, model_cls)
        assert model.spec is spec

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(TypeError):
            build_packaging_model(object())  # type: ignore[arg-type]

    def test_carbon_source_is_forwarded(self):
        coal = build_packaging_model(RDLFanoutSpec(), package_carbon_source="coal")
        wind = build_packaging_model(RDLFanoutSpec(), package_carbon_source="wind")
        assert (
            wind.package_carbon_intensity_g_per_kwh
            < coal.package_carbon_intensity_g_per_kwh
        )


class TestSpecFromDict:
    def test_basic_construction(self):
        spec = spec_from_dict({"type": "rdl_fanout", "layers": 8, "technology_nm": 40})
        assert isinstance(spec, RDLFanoutSpec)
        assert spec.layers == 8
        assert spec.technology_nm == 40

    @pytest.mark.parametrize(
        "alias, spec_cls",
        [
            ("emib", SiliconBridgeSpec),
            ("bridge", SiliconBridgeSpec),
            ("rdl", RDLFanoutSpec),
            ("fanout", RDLFanoutSpec),
            ("passive", PassiveInterposerSpec),
            ("active_interposer", ActiveInterposerSpec),
            ("3d", ThreeDStackSpec),
            ("mono", MonolithicSpec),
        ],
    )
    def test_aliases(self, alias, spec_cls):
        assert isinstance(spec_from_dict({"type": alias}), spec_cls)

    def test_case_insensitive(self):
        assert isinstance(spec_from_dict({"type": "EMIB"}), SiliconBridgeSpec)

    def test_missing_type_key(self):
        with pytest.raises(KeyError):
            spec_from_dict({"layers": 6})

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            spec_from_dict({"type": "wire-bond"})

    def test_unexpected_parameter_raises_type_error(self):
        with pytest.raises(TypeError):
            spec_from_dict({"type": "rdl", "bogus_parameter": 1})

    def test_every_registered_alias_is_constructible_with_defaults(self):
        for alias in PACKAGING_SPECS:
            spec = spec_from_dict({"type": alias})
            assert spec is not None


class TestMROAwareLookup:
    """Subclassed specs must resolve to their parent's registered model."""

    def test_spec_subclass_builds_parent_model(self):
        # Regression: build_packaging_model used an exact-type(spec) lookup,
        # so subclassing a spec dataclass (extra helpers, different
        # defaults) broke model construction.
        class TunedRDLSpec(RDLFanoutSpec):
            pass

        spec = TunedRDLSpec(layers=4)
        model = build_packaging_model(spec)
        assert isinstance(model, RDLFanoutModel)
        assert model.spec is spec
        assert model.spec.layers == 4

    def test_registered_subclass_wins_over_parent(self):
        class NichePassiveSpec(PassiveInterposerSpec):
            pass

        class NichePassiveModel(PassiveInterposerModel):
            architecture = "niche_passive"

        register_packaging("niche_passive", NichePassiveSpec, NichePassiveModel)
        assert isinstance(build_packaging_model(NichePassiveSpec()), NichePassiveModel)
        # the parent spec still resolves to the parent model
        assert type(build_packaging_model(PassiveInterposerSpec())) is PassiveInterposerModel

    def test_model_class_for_spec_walks_the_mro(self):
        class DeepSpec(SiliconBridgeSpec):
            pass

        class DeeperSpec(DeepSpec):
            pass

        assert model_class_for_spec(DeeperSpec) is SiliconBridgeModel
        assert model_class_for_spec(object) is None

    def test_is_monolithic_spec_follows_the_mro(self):
        class MonoVariantSpec(MonolithicSpec):
            pass

        assert is_monolithic_spec(MonoVariantSpec())
        assert not is_monolithic_spec(ThreeDStackSpec())
        assert not is_monolithic_spec(object())


class TestRegisterPackaging:
    def test_registered_entries_cover_the_builtins(self):
        names = {entry.name for entry in registered_packaging()}
        assert {
            "monolithic",
            "rdl_fanout",
            "silicon_bridge",
            "passive_interposer",
            "active_interposer",
            "3d_stack",
        } <= names

    def test_packaging_names_with_and_without_aliases(self):
        canonical = packaging_names()
        with_aliases = packaging_names(include_aliases=True)
        assert set(canonical) <= set(with_aliases)
        assert "emib" in with_aliases and "emib" not in canonical

    def test_describe_packaging_lists_aliases_and_spec(self):
        lines = "\n".join(describe_packaging())
        assert "silicon_bridge" in lines
        assert "emib" in lines
        assert "SiliconBridgeSpec" in lines

    def test_reregistering_the_same_entry_is_idempotent(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class IdemSpec:
            layers: int = 1

        class IdemModel(RDLFanoutModel):
            architecture = "idem_arch"

        first = register_packaging("idem_arch", IdemSpec, IdemModel, aliases=("idem",))
        second = register_packaging("idem_arch", IdemSpec, IdemModel, aliases=("idem",))
        assert first == second

    def test_conflicting_name_rejected(self):
        class ImpostorSpec:
            pass

        class ImpostorModel(RDLFanoutModel):
            pass

        with pytest.raises(ValueError):
            register_packaging("rdl_fanout", ImpostorSpec, ImpostorModel)

    def test_conflicting_alias_rejected(self):
        class OtherSpec:
            pass

        class OtherModel(RDLFanoutModel):
            pass

        with pytest.raises(ValueError):
            register_packaging("brand_new_arch", OtherSpec, OtherModel, aliases=("emib",))

    def test_non_model_class_rejected(self):
        with pytest.raises(TypeError):
            register_packaging("bogus_arch", RDLFanoutSpec, object)
        with pytest.raises(TypeError):
            register_packaging("bogus_arch", RDLFanoutSpec(), RDLFanoutModel)

    def test_model_without_compile_terms_rejected_at_registration(self):
        import dataclasses

        from repro.packaging.base import PackagingModel

        @dataclasses.dataclass(frozen=True)
        class OpaqueSpec:
            layers: int = 1

        class OpaqueModel(PackagingModel):
            architecture = "opaque_arch"

            def evaluate(self, *args, **kwargs):
                raise AssertionError("never evaluated")

        with pytest.raises(TypeError, match="OpaqueModel.*compile_terms"):
            register_packaging("opaque_arch", OpaqueSpec, OpaqueModel)
        assert "opaque_arch" not in packaging_names()

    def test_unknown_spec_error_names_registered_architectures(self):
        with pytest.raises(TypeError, match="rdl_fanout"):
            build_packaging_model(object())

    def test_spec_from_dict_error_names_registered_architectures(self):
        with pytest.raises(KeyError, match="silicon_bridge"):
            spec_from_dict({"type": "wire-bond"})


# ---------------------------------------------------------------------------
# Per-architecture parameter axes
# ---------------------------------------------------------------------------
class TestSweepableParams:
    def test_builtin_declarations(self):
        from repro.packaging.registry import sweepable_params

        assert list(sweepable_params("rdl_fanout")) == [
            "layers",
            "technology_nm",
            "phy_lanes",
        ]
        assert list(sweepable_params("bridge")) == [
            "bridge_layers",
            "bridge_technology_nm",
            "bridge_area_mm2",
            "bridge_range_mm",
            "phy_lanes",
        ]
        assert sweepable_params("monolithic") == {}

    def test_default_is_every_init_field(self):
        import dataclasses

        from repro.packaging.registry import sweepable_params

        @dataclasses.dataclass(frozen=True)
        class UndeclaredSpec:
            alpha: float = 1.0
            beta: int = 2

        assert list(sweepable_params(UndeclaredSpec)) == ["alpha", "beta"]

    def test_unknown_architecture_raises_with_catalogue(self):
        from repro.packaging.registry import sweepable_params

        with pytest.raises(KeyError, match="registered architectures"):
            sweepable_params("warp-drive")

    def test_registration_validates_sweep_params_declaration(self):
        import dataclasses
        from typing import ClassVar, Tuple

        @dataclasses.dataclass(frozen=True)
        class BadParamsSpec:
            SWEEP_PARAMS: ClassVar[Tuple[str, ...]] = ("layers", "warp_factor")
            layers: int = 1

        class BadParamsModel(RDLFanoutModel):
            architecture = "bad_params_arch"

        with pytest.raises(ValueError, match="warp_factor"):
            register_packaging("bad_params_arch", BadParamsSpec, BadParamsModel)


class TestExpandPackagingParams:
    def test_no_params_key_passes_through(self):
        from repro.packaging.registry import expand_packaging_params

        config = {"type": "rdl", "layers": 4}
        assert expand_packaging_params(config) == [config]

    def test_cartesian_expansion_in_declaration_order(self):
        from repro.packaging.registry import expand_packaging_params

        expanded = expand_packaging_params(
            {"type": "rdl", "params": {"layers": [4, 6], "phy_lanes": [32, 64]}}
        )
        assert expanded == [
            {"type": "rdl", "layers": 4, "phy_lanes": 32},
            {"type": "rdl", "layers": 4, "phy_lanes": 64},
            {"type": "rdl", "layers": 6, "phy_lanes": 32},
            {"type": "rdl", "layers": 6, "phy_lanes": 64},
        ]

    def test_scalar_promoted_to_one_element_axis(self):
        from repro.packaging.registry import expand_packaging_params

        assert expand_packaging_params(
            {"type": "rdl", "params": {"layers": 5}}
        ) == [{"type": "rdl", "layers": 5}]

    def test_unknown_param_names_sweepable_set(self):
        from repro.packaging.registry import expand_packaging_params

        with pytest.raises(ValueError, match=r"sweepable params: layers"):
            expand_packaging_params({"type": "rdl", "params": {"warp": [1]}})

    def test_core_axis_collision_rejected(self):
        import dataclasses

        from repro.packaging.registry import (
            CORE_SWEEP_AXES,
            expand_packaging_params,
        )

        @dataclasses.dataclass(frozen=True)
        class CollidingSpec:
            lifetimes: float = 1.0  # same name as a core sweep axis

        class CollidingModel(RDLFanoutModel):
            architecture = "colliding_arch"

        register_packaging("colliding_arch", CollidingSpec, CollidingModel)
        with pytest.raises(ValueError, match="collides with the core sweep axis"):
            expand_packaging_params(
                {"type": "colliding_arch", "params": {"lifetimes": [1.0, 2.0]}},
                reserved_axes=CORE_SWEEP_AXES,
            )
        # Fixed (non-swept) values of the colliding field stay usable.
        assert expand_packaging_params(
            {"type": "colliding_arch", "lifetimes": 3.0},
            reserved_axes=CORE_SWEEP_AXES,
        ) == [{"type": "colliding_arch", "lifetimes": 3.0}]

    def test_fixed_and_swept_param_rejected(self):
        from repro.packaging.registry import expand_packaging_params

        with pytest.raises(ValueError, match="both"):
            expand_packaging_params(
                {"type": "rdl", "layers": 4, "params": {"layers": [4, 6]}}
            )

    def test_duplicate_param_values_rejected(self):
        from repro.packaging.registry import expand_packaging_params

        with pytest.raises(ValueError, match="duplicate value"):
            expand_packaging_params({"type": "rdl", "params": {"layers": [4, 4]}})

    def test_empty_param_axis_rejected(self):
        from repro.packaging.registry import expand_packaging_params

        with pytest.raises(ValueError, match="has no values"):
            expand_packaging_params({"type": "rdl", "params": {"layers": []}})

    def test_non_mapping_params_rejected(self):
        from repro.packaging.registry import expand_packaging_params

        with pytest.raises(TypeError, match="params"):
            expand_packaging_params({"type": "rdl", "params": [4, 6]})

    def test_describe_packaging_lists_param_axes(self):
        lines = "\n".join(describe_packaging())
        assert "params: layers=6" in lines
        assert "bridge_range_mm=2.0" in lines


# ---------------------------------------------------------------------------
# Entry-point discovery and worker plugin import
# ---------------------------------------------------------------------------
@pytest.fixture()
def entry_point_sandbox(monkeypatch, tmp_path):
    """Fresh discovery state plus a tmp dir on sys.path for plugin modules.

    Restores the registry's plugin-module snapshot on teardown: modules
    loaded from the (about to disappear) tmp dir must not linger in
    ``plugin_modules()``, where a later test's worker pool would try — and
    fail — to re-import them.
    """
    import sys

    from repro.packaging import registry

    monkeypatch.setattr(registry, "_entry_points_loaded", False)
    monkeypatch.syspath_prepend(str(tmp_path))
    recorded_before = dict(registry._PLUGIN_MODULES)
    yield registry, tmp_path
    registry._PLUGIN_MODULES.clear()
    registry._PLUGIN_MODULES.update(recorded_before)
    # Drop any modules the test created in the tmp dir.
    for name in list(sys.modules):
        module = sys.modules[name]
        file = getattr(module, "__file__", None)
        if file and str(tmp_path) in str(file):
            del sys.modules[name]


def _entry_point(name, module):
    from importlib.metadata import EntryPoint

    return EntryPoint(name=name, value=module, group="eco_chip.packaging")


class TestEntryPointDiscovery:
    def test_entry_point_plugin_registers_architecture(
        self, entry_point_sandbox, monkeypatch
    ):
        registry, tmp_path = entry_point_sandbox
        (tmp_path / "ep_plugin_ok.py").write_text(
            "import dataclasses\n"
            "from repro.packaging.registry import register_packaging\n"
            "from repro.packaging.rdl import RDLFanoutModel\n"
            "\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class EpSpec:\n"
            "    layers: int = 2\n"
            "\n"
            "class EpModel(RDLFanoutModel):\n"
            "    architecture = 'ep_arch'\n"
            "\n"
            "register_packaging('ep_arch', EpSpec, EpModel)\n"
        )
        monkeypatch.setattr(
            registry,
            "_iter_packaging_entry_points",
            lambda: [_entry_point("ep_arch", "ep_plugin_ok")],
        )
        loaded = registry.load_entry_point_plugins(refresh=True)
        assert loaded == ["ep_arch"]
        assert "ep_arch" in packaging_names()
        # Second call without refresh is a no-op.
        assert registry.load_entry_point_plugins() == []

    def test_unknown_name_lookup_triggers_discovery(
        self, entry_point_sandbox, monkeypatch
    ):
        registry, tmp_path = entry_point_sandbox
        (tmp_path / "ep_plugin_lazy.py").write_text(
            "import dataclasses\n"
            "from repro.packaging.registry import register_packaging\n"
            "from repro.packaging.rdl import RDLFanoutModel\n"
            "\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class LazySpec:\n"
            "    layers: int = 2\n"
            "\n"
            "class LazyModel(RDLFanoutModel):\n"
            "    architecture = 'lazy_ep_arch'\n"
            "\n"
            "register_packaging('lazy_ep_arch', LazySpec, LazyModel)\n"
        )
        monkeypatch.setattr(
            registry,
            "_iter_packaging_entry_points",
            lambda: [_entry_point("lazy_ep_arch", "ep_plugin_lazy")],
        )
        spec = spec_from_dict({"type": "lazy_ep_arch"})
        assert type(spec).__name__ == "LazySpec"

    def test_broken_entry_point_raises_clear_registry_error(
        self, entry_point_sandbox, monkeypatch
    ):
        registry, tmp_path = entry_point_sandbox
        (tmp_path / "ep_plugin_broken.py").write_text(
            "raise RuntimeError('kaboom at import time')\n"
        )
        monkeypatch.setattr(
            registry,
            "_iter_packaging_entry_points",
            lambda: [_entry_point("broken", "ep_plugin_broken")],
        )
        with pytest.raises(registry.PackagingPluginError) as excinfo:
            registry.load_entry_point_plugins(refresh=True)
        message = str(excinfo.value)
        assert "'broken'" in message
        assert "eco_chip.packaging" in message
        assert "kaboom at import time" in message


class TestImportPluginModules:
    def test_modules_already_imported_are_skipped(self):
        from repro.packaging.registry import import_plugin_modules

        assert import_plugin_modules((("repro.packaging.rdl", None),)) == []

    def test_source_file_fallback_loads_under_recorded_name(self, tmp_path):
        import sys

        from repro.packaging.registry import import_plugin_modules

        path = tmp_path / "file_only_plugin.py"
        path.write_text("MARKER = 'loaded-from-file'\n")
        name = "file_only_plugin_test_module"
        assert name not in sys.modules
        try:
            imported = import_plugin_modules(((name, str(path)),))
            assert imported == [name]
            assert sys.modules[name].MARKER == "loaded-from-file"
        finally:
            sys.modules.pop(name, None)

    def test_unimportable_module_without_source_raises(self):
        from repro.packaging.registry import (
            PackagingPluginError,
            import_plugin_modules,
        )

        with pytest.raises(PackagingPluginError, match="no source file"):
            import_plugin_modules((("ghost_plugin_module_xyz", None),))

    def test_broken_source_file_raises_and_unwinds(self, tmp_path):
        import sys

        from repro.packaging.registry import (
            PackagingPluginError,
            import_plugin_modules,
        )

        path = tmp_path / "broken_plugin.py"
        path.write_text("raise ValueError('bad plugin body')\n")
        name = "broken_plugin_test_module"
        with pytest.raises(PackagingPluginError, match="bad plugin body"):
            import_plugin_modules(((name, str(path)),))
        assert name not in sys.modules

    def test_broken_entry_point_does_not_block_healthy_ones(
        self, entry_point_sandbox, monkeypatch
    ):
        registry, tmp_path = entry_point_sandbox
        (tmp_path / "ep_plugin_broken2.py").write_text(
            "raise RuntimeError('still broken')\n"
        )
        (tmp_path / "ep_plugin_healthy.py").write_text(
            "import dataclasses\n"
            "from repro.packaging.registry import register_packaging\n"
            "from repro.packaging.rdl import RDLFanoutModel\n"
            "\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class HealthySpec:\n"
            "    layers: int = 2\n"
            "\n"
            "class HealthyModel(RDLFanoutModel):\n"
            "    architecture = 'healthy_ep_arch'\n"
            "\n"
            "register_packaging('healthy_ep_arch', HealthySpec, HealthyModel)\n"
        )
        monkeypatch.setattr(
            registry,
            "_iter_packaging_entry_points",
            lambda: [
                _entry_point("broken2", "ep_plugin_broken2"),
                _entry_point("healthy", "ep_plugin_healthy"),
            ],
        )
        # The error surfaces once, but the healthy plugin registered anyway.
        with pytest.raises(registry.PackagingPluginError, match="still broken"):
            registry.load_entry_point_plugins(refresh=True)
        assert "healthy_ep_arch" in packaging_names()
        # Later lookups resolve the healthy architecture without re-raising.
        assert type(spec_from_dict({"type": "healthy_ep_arch"})).__name__ == "HealthySpec"


class TestCanonicalPackagingName:
    def test_aliases_resolve_to_canonical(self):
        from repro.packaging.registry import canonical_packaging_name

        assert canonical_packaging_name("rdl") == "rdl_fanout"
        assert canonical_packaging_name("EMIB ") == "silicon_bridge"
        assert canonical_packaging_name("rdl_fanout") == "rdl_fanout"

    def test_unregistered_names_pass_through_normalised(self):
        from repro.packaging.registry import canonical_packaging_name

        assert canonical_packaging_name(" Warp-Drive ") == "warp-drive"
