"""Unit tests for repro.sweep.spec (declarative sweep specifications)."""

from __future__ import annotations

import json

import pytest

from repro.packaging.bridge import SiliconBridgeSpec
from repro.packaging.rdl import RDLFanoutSpec
from repro.sweep.spec import PRESETS, Scenario, SweepSpec, parse_yamlish


class TestFromDict:
    def test_scalars_are_promoted_to_axes(self):
        spec = SweepSpec.from_dict(
            {"testcases": "ga102-3chiplet", "nodes": 7, "packaging": "rdl", "lifetimes": 2}
        )
        assert spec.testcases == ("ga102-3chiplet",)
        assert spec.nodes == (7.0,)
        assert spec.packaging == ({"type": "rdl"},)
        assert spec.lifetimes == (2.0,)

    def test_unknown_keys_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep-spec keys"):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet"], "bogus": 1})

    def test_needs_a_base_system(self):
        with pytest.raises(ValueError, match="at least one testcase"):
            SweepSpec.from_dict({"nodes": [7, 14]})

    def test_nodes_and_node_configs_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SweepSpec.from_dict(
                {"testcases": ["ga102-3chiplet"], "nodes": [7], "node_configs": [[7, 7, 7]]}
            )

    def test_invalid_packaging_rejected_eagerly(self):
        with pytest.raises(KeyError, match="unknown packaging type"):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet"], "packaging": ["warp-drive"]})

    def test_invalid_carbon_source_rejected_eagerly(self):
        with pytest.raises(KeyError, match="unknown carbon source"):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet"], "carbon_sources": ["unobtanium"]})

    def test_non_positive_axis_values_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet"], "lifetimes": [0]})
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet"], "system_volumes": [-1]})


class TestExpansion:
    def test_cartesian_product_size(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet"],
                "nodes": [7, 14],
                "packaging": ["rdl", "emib"],
                "carbon_sources": ["coal", "wind"],
            }
        )
        # 2 nodes ^ 3 chiplets x 2 packagings x 2 sources = 32 scenarios.
        assert spec.count() == 32

    def test_indices_are_stable_and_dense(self):
        scenarios = SweepSpec.preset("ga102-quick").expand()
        assert [s.index for s in scenarios] == list(range(len(scenarios)))

    def test_empty_axes_keep_base_values(self):
        spec = SweepSpec.from_dict({"testcases": ["ga102-3chiplet"]})
        scenarios = spec.expand()
        assert len(scenarios) == 1
        only = scenarios[0]
        assert only.nodes is None and only.packaging is None and only.fab_source is None

    def test_explicit_node_configs(self):
        spec = SweepSpec.from_dict(
            {"testcases": ["ga102-3chiplet"], "node_configs": [[7, 14, 10], [7, 7, 7]]}
        )
        scenarios = spec.expand()
        assert [s.nodes for s in scenarios] == [(7.0, 14.0, 10.0), (7.0, 7.0, 7.0)]

    def test_node_config_arity_checked_against_chiplet_count(self):
        spec = SweepSpec.from_dict(
            {"testcases": ["ga102-3chiplet"], "node_configs": [[7, 14]]}
        )
        with pytest.raises(ValueError, match="chiplets"):
            spec.expand()

    def test_count_makes_the_same_node_config_check_as_expand(self):
        # A spec that is sized but never expanded is rejected all the same.
        spec = SweepSpec.from_dict(
            {"testcases": ["ga102-3chiplet"], "node_configs": [[7, 7]]}
        )
        message = r"node config \(7\.0, 7\.0\) has 2 entries"
        with pytest.raises(ValueError, match=message):
            spec.count()
        with pytest.raises(ValueError, match=message):
            spec.expand()
        with pytest.raises(ValueError, match=message):
            next(spec.template_groups())

    def test_multiple_bases_concatenate(self):
        spec = SweepSpec.from_dict(
            {"testcases": ["ga102-3chiplet", "a15-3chiplet"], "lifetimes": [2, 4]}
        )
        assert spec.count() == 4

    def test_count_matches_expand_without_allocating_the_grid(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet", "emr-2chiplet"],
                "nodes": [7, 14, 22],
                "packaging": ["rdl", "emib"],
                "lifetimes": [2, 4],
            }
        )
        assert spec.count() == len(spec.expand()) == (27 + 9) * 2 * 2


class TestScenario:
    def test_build_system_applies_overrides(self):
        scenario = Scenario(
            index=0,
            base_kind="testcase",
            base_ref="ga102-3chiplet",
            nodes=(7.0, 7.0, 7.0),
            packaging={"type": "emib"},
            lifetime_years=5.0,
            system_volume=12_345.0,
        )
        system = scenario.build_system()
        assert system.node_configuration() == (7.0, 7.0, 7.0)
        assert isinstance(system.packaging, SiliconBridgeSpec)
        assert system.operating.lifetime_years == 5.0
        assert system.system_volume == 12_345.0

    def test_build_system_keeps_base_when_no_overrides(self):
        scenario = Scenario(index=0, base_kind="testcase", base_ref="ga102-3chiplet")
        system = scenario.build_system()
        assert isinstance(system.packaging, RDLFanoutSpec)

    def test_unknown_base_kind_rejected(self):
        scenario = Scenario(index=0, base_kind="warp", base_ref="x")
        with pytest.raises(ValueError, match="base kind"):
            scenario.build_system()

    def test_label_and_record_are_compact(self):
        scenario = Scenario(
            index=3,
            base_kind="testcase",
            base_ref="ga102-3chiplet",
            nodes=(7.0, 14.0, 10.0),
            packaging={"type": "rdl"},
            fab_source="wind",
            lifetime_years=4.0,
        )
        assert scenario.label == "ga102-3chiplet/(7,14,10)/rdl/wind/4y"
        record = scenario.to_record()
        assert record["scenario"] == 3
        assert record["nodes"] == [7.0, 14.0, 10.0]
        assert record["packaging"] == "rdl"
        assert record["system_volume"] is None


class TestPresets:
    def test_every_preset_builds_and_expands(self):
        for name in PRESETS:
            spec = SweepSpec.preset(name)
            assert spec.count() > 0

    def test_ga102_grid_is_paper_scale(self):
        # The acceptance grid: 4 nodes ^ 3 chiplets x 5 packagings x 2 sources.
        assert SweepSpec.preset("ga102-grid").count() == 640

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep preset"):
            SweepSpec.preset("warp-speed")


class TestFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"testcases": ["ga102-3chiplet"], "nodes": [7, 14]}))
        assert SweepSpec.from_file(path).count() == 8

    def test_json_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            SweepSpec.from_file(path)

    def test_yamlish_round_trip(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "# a comment\n"
            "name: demo\n"
            "testcases: [ga102-3chiplet]\n"
            "nodes: [7, 14]\n"
            "packaging:\n"
            "  - rdl\n"
            "  - {type: emib, bridge_layers: 3}\n"
            "lifetimes: [2]\n"
        )
        spec = SweepSpec.from_file(path)
        assert spec.name == "demo"
        assert spec.packaging[1] == {"type": "emib", "bridge_layers": 3}
        assert spec.count() == 8 * 2

    def test_design_dirs_resolve_relative_to_spec_file(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({"design_dirs": ["my-design"]}))
        spec = SweepSpec.from_file(tmp_path / "spec.json")
        assert spec.design_dirs == (str(tmp_path / "my-design"),)


class TestYamlishParser:
    def test_scalars(self):
        data = parse_yamlish("a: 1\nb: 2.5\nc: hello\nd: true\ne: null\nf: 'q'\n")
        assert data == {"a": 1, "b": 2.5, "c": "hello", "d": True, "e": None, "f": "q"}

    def test_inline_and_block_lists(self):
        data = parse_yamlish("xs: [1, 2, 3]\nys:\n  - 4\n  - 5\n")
        assert data == {"xs": [1, 2, 3], "ys": [4, 5]}

    def test_inline_mapping_nested_in_list(self):
        data = parse_yamlish("ps: [{type: rdl, layers: 6}, emib]\n")
        assert data == {"ps": [{"type": "rdl", "layers": 6}, "emib"]}

    def test_quoted_values_may_contain_commas(self):
        data = parse_yamlish('names: ["a,b", c]\n')
        assert data == {"names": ["a,b", "c"]}

    def test_errors_on_unsupported_constructs(self):
        with pytest.raises(ValueError):
            parse_yamlish("- orphan item\n")
        with pytest.raises(ValueError):
            parse_yamlish("key\n")
        with pytest.raises(ValueError):
            parse_yamlish("a: 1\n   nested: 2\n")


class TestDuplicateAxisValues:
    """Duplicate values within an axis inflate grids — rejected eagerly."""

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate value"):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet"], "nodes": [7, 14, 7]})

    def test_duplicate_testcases_rejected(self):
        with pytest.raises(ValueError, match="duplicate value"):
            SweepSpec.from_dict({"testcases": ["ga102-3chiplet", "ga102-3chiplet"]})

    def test_duplicate_lifetimes_rejected(self):
        with pytest.raises(ValueError, match="lifetimes"):
            SweepSpec.from_dict(
                {"testcases": ["ga102-3chiplet"], "lifetimes": [2, 2.0]}
            )

    def test_duplicate_carbon_sources_rejected(self):
        with pytest.raises(ValueError, match="carbon_sources"):
            SweepSpec.from_dict(
                {"testcases": ["ga102-3chiplet"], "carbon_sources": ["coal", "coal"]}
            )

    def test_duplicate_system_volumes_rejected(self):
        with pytest.raises(ValueError, match="system_volumes"):
            SweepSpec.from_dict(
                {"testcases": ["ga102-3chiplet"], "system_volumes": [1e5, 1e5]}
            )

    def test_duplicate_node_configs_rejected(self):
        with pytest.raises(ValueError, match="node_configs"):
            SweepSpec.from_dict(
                {
                    "testcases": ["ga102-3chiplet"],
                    "node_configs": [[7, 14, 10], [7, 14, 10]],
                }
            )

    def test_duplicate_packaging_configs_rejected(self):
        with pytest.raises(ValueError, match="packaging"):
            SweepSpec.from_dict(
                {
                    "testcases": ["ga102-3chiplet"],
                    "packaging": ["rdl", {"type": "rdl"}],
                }
            )

    def test_param_expansion_collision_with_explicit_entry_rejected(self):
        # The expanded {type: rdl, layers: 6} duplicates the explicit entry.
        with pytest.raises(ValueError, match="duplicate value"):
            SweepSpec.from_dict(
                {
                    "testcases": ["ga102-3chiplet"],
                    "packaging": [
                        {"type": "rdl", "layers": 6},
                        {"type": "rdl", "params": {"layers": [4, 6]}},
                    ],
                }
            )

    def test_distinct_values_still_accepted(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet"],
                "nodes": [7, 14],
                "packaging": ["rdl", {"type": "rdl", "layers": 4}],
                "lifetimes": [2, 6],
            }
        )
        assert len(spec.packaging) == 2


class TestPackagingParamAxes:
    def test_params_expand_into_concrete_configs(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet"],
                "packaging": [
                    {"type": "bridge", "params": {"bridge_range_mm": [2.0, 4.0]}}
                ],
            }
        )
        assert spec.packaging == (
            {"type": "bridge", "bridge_range_mm": 2.0},
            {"type": "bridge", "bridge_range_mm": 4.0},
        )
        assert spec.count() == 2

    def test_direct_construction_expands_too(self):
        spec = SweepSpec(
            testcases=("ga102-3chiplet",),
            packaging=({"type": "rdl", "params": {"layers": [4, 6]}},),
        )
        assert spec.packaging == (
            {"type": "rdl", "layers": 4},
            {"type": "rdl", "layers": 6},
        )

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="sweepable params"):
            SweepSpec.from_dict(
                {
                    "testcases": ["ga102-3chiplet"],
                    "packaging": [{"type": "rdl", "params": {"warp": [1, 2]}}],
                }
            )

    def test_invalid_param_value_rejected_eagerly(self):
        # Expansion succeeds but the spec dataclass rejects the value.
        with pytest.raises(ValueError, match="layer count"):
            SweepSpec.from_dict(
                {
                    "testcases": ["ga102-3chiplet"],
                    "packaging": [{"type": "rdl", "params": {"layers": [4, 99]}}],
                }
            )

    def test_yamlish_inline_params_parse_and_expand(self):
        data = parse_yamlish(
            "testcases: [ga102-3chiplet]\n"
            "packaging:\n"
            "  - rdl\n"
            '  - {type: bridge, params: {bridge_range_mm: [2.0, 4.0]}}\n'
        )
        spec = SweepSpec.from_dict(data)
        assert len(spec.packaging) == 3

    def test_scenario_records_carry_param_values(self):
        spec = SweepSpec.from_dict(
            {
                "testcases": ["ga102-3chiplet"],
                "packaging": [
                    "rdl",
                    {"type": "bridge", "params": {"bridge_range_mm": [2.0]}},
                ],
            }
        )
        records = [scenario.to_record() for scenario in spec.expand()]
        assert records[0]["packaging_params"] is None
        assert records[1]["packaging_params"] == json.dumps(
            {"bridge_range_mm": 2.0}, sort_keys=True
        )

    def test_alias_duplicates_rejected(self):
        # "rdl" and "rdl_fanout" name the same architecture; accepting both
        # would double-count it in the grid.
        with pytest.raises(ValueError, match="duplicate value"):
            SweepSpec.from_dict(
                {"testcases": ["ga102-3chiplet"], "packaging": ["rdl", "rdl_fanout"]}
            )
