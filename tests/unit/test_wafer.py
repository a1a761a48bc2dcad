"""Unit tests for repro.manufacturing.wafer (Eqs. 7–8)."""

from __future__ import annotations

import math

import pytest

from repro.manufacturing.wafer import WaferModel


class TestWaferModelConstruction:
    @pytest.mark.parametrize("diameter", [0, -300, float("nan"), float("inf")])
    def test_invalid_diameter(self, diameter):
        with pytest.raises(ValueError, match="positive and finite"):
            WaferModel(wafer_diameter_mm=diameter)

    def test_invalid_edge_exclusion(self):
        with pytest.raises(ValueError):
            WaferModel(300, edge_exclusion_mm=-1)
        with pytest.raises(ValueError):
            WaferModel(300, edge_exclusion_mm=200)

    def test_wafer_area(self):
        model = WaferModel(wafer_diameter_mm=300)
        assert model.wafer_area_mm2 == pytest.approx(math.pi * 150**2)


class TestDiesPerWafer:
    def test_matches_eq7_closed_form(self):
        model = WaferModel(wafer_diameter_mm=450)
        area = 100.0
        side = math.sqrt(area)
        expected = math.floor(math.pi * (225 - side / math.sqrt(2)) ** 2 / area)
        assert model.dies_per_wafer(area) == expected

    def test_smaller_dies_pack_more(self):
        model = WaferModel(wafer_diameter_mm=450)
        assert model.dies_per_wafer(25) > model.dies_per_wafer(100) > model.dies_per_wafer(600)

    def test_small_die_count_scales_roughly_inverse_area(self):
        model = WaferModel(wafer_diameter_mm=450)
        ratio = model.dies_per_wafer(10) / model.dies_per_wafer(100)
        assert 8 < ratio < 12

    def test_huge_die_does_not_fit(self):
        model = WaferModel(wafer_diameter_mm=25)
        assert model.dies_per_wafer(600.0) == 0

    def test_invalid_die_area(self):
        model = WaferModel()
        with pytest.raises(ValueError):
            model.dies_per_wafer(0)
        with pytest.raises(ValueError):
            model.dies_per_wafer(-5)


class TestWastedArea:
    def test_small_dies_waste_less_per_die(self):
        """The paper's Fig. 3 argument: small dies amortise the waste better."""
        model = WaferModel(wafer_diameter_mm=450)
        assert model.wasted_area_per_die_mm2(50) < model.wasted_area_per_die_mm2(600)

    def test_waste_is_consistent_with_utilisation(self):
        model = WaferModel(wafer_diameter_mm=450)
        report = model.utilisation(200)
        assert report.wasted_area_mm2 == pytest.approx(
            report.wafer_area_mm2 - report.used_area_mm2
        )
        assert report.wasted_area_per_die_mm2 == pytest.approx(
            report.wasted_area_mm2 / report.dies_per_wafer
        )
        assert 0 < report.utilisation < 1

    def test_waste_raises_when_die_does_not_fit(self):
        model = WaferModel(wafer_diameter_mm=25)
        with pytest.raises(ValueError):
            model.wasted_area_per_die_mm2(600.0)

    def test_total_used_area_never_exceeds_wafer(self):
        model = WaferModel(wafer_diameter_mm=300)
        for area in (10, 50, 111, 400, 780):
            report = model.utilisation(area)
            assert report.used_area_mm2 <= report.wafer_area_mm2

    def test_edge_exclusion_reduces_dies(self):
        plain = WaferModel(wafer_diameter_mm=300)
        excluded = WaferModel(wafer_diameter_mm=300, edge_exclusion_mm=5)
        assert excluded.dies_per_wafer(100) <= plain.dies_per_wafer(100)
