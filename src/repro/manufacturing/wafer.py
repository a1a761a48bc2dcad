"""Dies-per-wafer and wasted-silicon models.

Section III-C(3) of the paper observes that the area around the periphery of
the wafer (and the geometric packing loss of square dies on a round wafer)
is wasted, and that this waste is amortised across fewer dies when the dies
are large.  The number of dies per wafer (DPW, Eq. 7) and the wasted area per
die (Eq. 8) are::

    DPW      = floor( pi * (D_wafer/2 - L_d/sqrt(2))**2 / A_die )
    A_wasted = (A_wafer - DPW * A_die) / DPW

where ``L_d`` is the side length of the (assumed square) die.  Smaller dies
pack better, so chiplet-based systems amortise the same wafer waste across
many more dies.
"""

from __future__ import annotations

import dataclasses
import math

#: Default wafer diameter used in the paper's experiments (Section IV).
DEFAULT_WAFER_DIAMETER_MM = 450.0


@dataclasses.dataclass(frozen=True)
class WaferUtilisation:
    """Result of placing one die design on a wafer.

    Attributes:
        die_area_mm2: Area of a single die.
        wafer_diameter_mm: Diameter of the wafer.
        dies_per_wafer: Whole dies that fit (Eq. 7).
        wafer_area_mm2: Total wafer area.
        used_area_mm2: Area covered by whole dies.
        wasted_area_mm2: Total silicon not covered by whole dies.
        wasted_area_per_die_mm2: Waste amortised per good die (Eq. 8).
        utilisation: Fraction of the wafer area covered by dies.
    """

    die_area_mm2: float
    wafer_diameter_mm: float
    dies_per_wafer: int
    wafer_area_mm2: float
    used_area_mm2: float
    wasted_area_mm2: float
    wasted_area_per_die_mm2: float
    utilisation: float


class WaferModel:
    """Computes dies-per-wafer and amortised silicon waste.

    Args:
        wafer_diameter_mm: Wafer diameter; the paper sweeps 25–450 mm and
            uses 450 mm for the headline results.
        edge_exclusion_mm: Additional ring at the wafer edge that cannot hold
            dies (handling/clamping margin).  Zero by default to match Eq. 7.
    """

    def __init__(
        self,
        wafer_diameter_mm: float = DEFAULT_WAFER_DIAMETER_MM,
        edge_exclusion_mm: float = 0.0,
    ):
        if not (math.isfinite(wafer_diameter_mm) and wafer_diameter_mm > 0):
            raise ValueError(
                f"wafer diameter must be positive and finite, got {wafer_diameter_mm}"
            )
        if edge_exclusion_mm < 0:
            raise ValueError(f"edge exclusion must be non-negative, got {edge_exclusion_mm}")
        if 2 * edge_exclusion_mm >= wafer_diameter_mm:
            raise ValueError("edge exclusion consumes the entire wafer")
        self.wafer_diameter_mm = float(wafer_diameter_mm)
        self.edge_exclusion_mm = float(edge_exclusion_mm)

    @property
    def wafer_area_mm2(self) -> float:
        """Total area of the wafer."""
        return math.pi * (self.wafer_diameter_mm / 2.0) ** 2

    def dies_per_wafer(self, die_area_mm2: float) -> int:
        """Eq. 7: whole dies of ``die_area_mm2`` that fit on the wafer."""
        if die_area_mm2 <= 0:
            raise ValueError(f"die area must be positive, got {die_area_mm2}")
        side = math.sqrt(die_area_mm2)
        usable_radius = (
            self.wafer_diameter_mm / 2.0 - self.edge_exclusion_mm - side / math.sqrt(2.0)
        )
        if usable_radius <= 0:
            return 0
        usable_area = math.pi * usable_radius**2
        return int(math.floor(usable_area / die_area_mm2))

    def wasted_area_per_die_mm2(self, die_area_mm2: float) -> float:
        """Eq. 8: wafer area not covered by dies, amortised per die."""
        dpw = self.dies_per_wafer(die_area_mm2)
        if dpw == 0:
            raise ValueError(
                f"a {die_area_mm2} mm2 die does not fit on a "
                f"{self.wafer_diameter_mm} mm wafer"
            )
        return (self.wafer_area_mm2 - dpw * die_area_mm2) / dpw

    def utilisation(self, die_area_mm2: float) -> WaferUtilisation:
        """Full utilisation report for one die design."""
        dpw = self.dies_per_wafer(die_area_mm2)
        wafer_area = self.wafer_area_mm2
        used = dpw * die_area_mm2
        wasted = wafer_area - used
        per_die = wasted / dpw if dpw > 0 else float("inf")
        return WaferUtilisation(
            die_area_mm2=die_area_mm2,
            wafer_diameter_mm=self.wafer_diameter_mm,
            dies_per_wafer=dpw,
            wafer_area_mm2=wafer_area,
            used_area_mm2=used,
            wasted_area_mm2=wasted,
            wasted_area_per_die_mm2=per_die,
            utilisation=used / wafer_area if wafer_area > 0 else 0.0,
        )
