"""Unit tests for repro.technology.nodes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.technology.nodes import (
    DEFAULT_TECHNOLOGY_TABLE,
    TechnologyTable,
    _normalise_node_key,
)


class TestNodeKeyNormalisation:
    @pytest.mark.parametrize(
        "key, expected",
        [("7nm", 7.0), ("7", 7.0), (7, 7.0), (7.0, 7.0), (" 14NM ", 14.0), ("6.5nm", 6.5)],
    )
    def test_accepted_formats(self, key, expected):
        assert _normalise_node_key(key) == expected

    @pytest.mark.parametrize("key", ["sevennm", "", "-7", 0, -3])
    def test_rejected_formats(self, key):
        with pytest.raises(KeyError):
            _normalise_node_key(key)


class TestTechnologyNode:
    def test_name_formatting(self, table):
        assert table.get(7).name == "7nm"
        assert table.get(65).name == "65nm"

    def test_density_for_aliases(self, table):
        node = table.get(7)
        assert node.density_for("digital") == node.logic_density_mtr_per_mm2
        assert node.density_for("sram") == node.memory_density_mtr_per_mm2
        assert node.density_for("io") == node.analog_density_mtr_per_mm2
        with pytest.raises(KeyError):
            node.density_for("quantum")

    def test_validate_rejects_out_of_range_values(self, table):
        node = table.get(7)
        broken = dataclasses.replace(node, defect_density_per_cm2=5.0)
        with pytest.raises(ValueError):
            broken.validate()

    def test_all_default_nodes_validate(self, table):
        for node in table:
            node.validate()


class TestDefaultTableTrends:
    """The monotonic trends the paper's arguments rely on."""

    def test_defect_density_increases_with_advanced_nodes(self, table):
        sizes = table.feature_sizes
        densities = [table.get(s).defect_density_per_cm2 for s in sizes]
        # feature_sizes ascend (3 -> 65), so defect density must descend.
        assert densities == sorted(densities, reverse=True)

    def test_epa_increases_with_advanced_nodes(self, table):
        sizes = table.feature_sizes
        epas = [table.get(s).epa_kwh_per_cm2 for s in sizes]
        assert epas == sorted(epas, reverse=True)

    def test_logic_density_increases_with_advanced_nodes(self, table):
        sizes = table.feature_sizes
        densities = [table.get(s).logic_density_mtr_per_mm2 for s in sizes]
        assert densities == sorted(densities, reverse=True)

    def test_memory_scales_more_slowly_than_logic(self, table):
        """SRAM density ratio 7nm/65nm must be well below the logic ratio."""
        logic_ratio = (
            table.get(7).logic_density_mtr_per_mm2 / table.get(65).logic_density_mtr_per_mm2
        )
        memory_ratio = (
            table.get(7).memory_density_mtr_per_mm2 / table.get(65).memory_density_mtr_per_mm2
        )
        analog_ratio = (
            table.get(7).analog_density_mtr_per_mm2 / table.get(65).analog_density_mtr_per_mm2
        )
        assert memory_ratio < logic_ratio
        assert analog_ratio < memory_ratio

    def test_vdd_increases_for_older_nodes(self, table):
        assert table.get(65).vdd_v > table.get(28).vdd_v > table.get(7).vdd_v

    def test_eda_productivity_better_for_older_nodes(self, table):
        assert table.get(65).eda_productivity > table.get(7).eda_productivity

    def test_equipment_efficiency_derate_lower_for_mature_nodes(self, table):
        assert table.get(65).equipment_efficiency < table.get(7).equipment_efficiency


class TestTechnologyTableLookup:
    def test_exact_lookup_by_various_keys(self, table):
        assert table.get("7nm").feature_nm == 7.0
        assert table["10"].feature_nm == 10.0
        assert table.get(65).feature_nm == 65.0

    def test_contains(self, table):
        assert 7 in table
        assert "14nm" in table
        assert 8 not in table  # not tabulated (but interpolatable)
        assert "bogus" not in table

    def test_len_and_iteration_order(self, table):
        nodes = list(table)
        assert len(nodes) == len(table)
        assert [n.feature_nm for n in nodes] == sorted(n.feature_nm for n in nodes)

    def test_interpolation_between_nodes(self, table):
        interpolated = table.get(8)
        lo, hi = table.get(7), table.get(10)
        assert lo.epa_kwh_per_cm2 >= interpolated.epa_kwh_per_cm2 >= hi.epa_kwh_per_cm2
        assert (
            hi.defect_density_per_cm2
            <= interpolated.defect_density_per_cm2
            <= lo.defect_density_per_cm2
        )

    @pytest.mark.parametrize("node", [2, 90, float("nan")])
    def test_extrapolation_is_refused(self, table, node):
        with pytest.raises(KeyError, match="outside tabulated range"):
            table.get(node)

    def test_add_and_replace(self, table):
        custom = TechnologyTable(list(table))
        new_node = dataclasses.replace(table.get(65), feature_nm=90.0)
        custom.add(new_node)
        assert 90 in custom
        with pytest.raises(ValueError):
            custom.add(new_node)
        custom.add(dataclasses.replace(new_node, vdd_v=1.3), replace=True)
        assert custom.get(90).vdd_v == pytest.approx(1.3)

    def test_empty_table_is_rejected(self):
        with pytest.raises(ValueError):
            TechnologyTable([])

    def test_normalised_defect_density_reference_is_one(self, table):
        normalised = table.normalised_defect_density(reference=65)
        assert normalised[65.0] == pytest.approx(1.0)
        assert normalised[7.0] > 1.0

    def test_default_table_is_shared_instance(self):
        assert DEFAULT_TECHNOLOGY_TABLE is DEFAULT_TECHNOLOGY_TABLE
        assert len(DEFAULT_TECHNOLOGY_TABLE) >= 7
