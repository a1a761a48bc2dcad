"""Per-process-node parameter database.

Every carbon model in ECO-CHIP is parameterised by the process node a die (or
a package substrate, interposer or bridge) is manufactured in.  This module
defines :class:`TechnologyNode`, an immutable record of all per-node
parameters used by the framework, and :class:`TechnologyTable`, the registry
that maps node names (``"7nm"``) or feature sizes (``7``) to records and can
interpolate parameters for nodes that are not tabulated.

The default table spans 3 nm to 65 nm.  Parameter values follow the ranges of
Table I in the paper (defect densities 0.07–0.3 /cm², EPA 0.8–3.5 kWh/cm²,
transistor densities 5–150 MTr/mm², …) with the qualitative trends the paper
relies on:

* **Advanced nodes** have *higher* defect densities, *higher* manufacturing
  energy per area, *higher* per-layer patterning energy, and *lower*
  equipment-efficiency derates (newer lithography equipment is less mature).
* **Older nodes** have *lower* transistor densities (larger areas for the
  same function), *higher* supply voltages, and *better* EDA-tool
  productivity (the same design closes faster on a mature node).
* Memory (SRAM) and analog transistor densities scale far more slowly than
  logic density, which is what makes technology mix-and-match attractive.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

NodeKey = Union[str, int, float]


def table_signature(table: Optional["TechnologyTable"] = None) -> str:
    """Content hash (SHA-256 hex digest) of a technology table.

    Two tables hash equal exactly when they tabulate the same nodes with the
    same parameter values — the condition under which every model produces
    bit-identical results.  ``None`` hashes the built-in default table, so a
    verbatim copy of the default shares its signature.  Used where table
    identity must survive process boundaries: persistent compile-cache
    entry versioning (:mod:`repro.fastpath.diskcache`).
    """
    if table is None:
        table = DEFAULT_TECHNOLOGY_TABLE
    hasher = hashlib.sha256()
    for record in table:  # __iter__ yields nodes sorted by feature size
        # The dataclass repr spells out every field value; unlike
        # dataclasses.astuple it involves no deep copy, keeping the
        # signature cheap enough to compute per estimator construction.
        hasher.update(repr(record).encode("utf-8"))
    return hasher.hexdigest()


def _normalise_node_key(node: NodeKey) -> float:
    """Convert ``"7nm"``, ``"7"``, ``7`` or ``7.0`` to the float ``7.0``."""
    if isinstance(node, (int, float)):
        value = float(node)
    else:
        text = node.strip().lower()
        if text.endswith("nm"):
            text = text[:-2]
        try:
            value = float(text)
        except ValueError as exc:
            raise KeyError(f"cannot parse technology node {node!r}") from exc
    if value <= 0:
        raise KeyError(f"technology node must be positive, got {node!r}")
    return value


@dataclasses.dataclass(frozen=True)
class TechnologyNode:
    """All per-node parameters consumed by the ECO-CHIP models.

    Attributes:
        feature_nm: Nominal feature size in nanometres (the node "name").
        defect_density_per_cm2: ``D0(p)`` of the negative-binomial yield
            model (defects per cm²).
        clustering_alpha: ``alpha`` of the negative-binomial yield model.
        logic_density_mtr_per_mm2: Logic transistor density in millions of
            transistors per mm².
        memory_density_mtr_per_mm2: SRAM transistor density in MTr/mm².
        analog_density_mtr_per_mm2: Analog/IO transistor density in MTr/mm².
        epa_kwh_per_cm2: Manufacturing energy per unit area (``EPA(p)``).
        epla_rdl_kwh_per_cm2: Energy per RDL metal layer per unit area
            (``EPLA_RDL(p)``), used for fanout and passive-interposer BEOL.
        epla_bridge_kwh_per_cm2: Energy per ultra-fine-pitch metal layer per
            unit area (``EPLA_bridge(p)``), used for silicon bridges.
        gas_kg_per_cm2: Direct greenhouse-gas emissions per unit area
            (``Cgas``), dominated by fluorinated process gases.
        material_kg_per_cm2: Carbon footprint of sourcing wafer materials
            per unit area (``Cmaterial``).
        equipment_efficiency: ``eta_eq(p)``, the derate applied to EPA to
            model the energy efficiency of the process equipment for that
            node generation (mature nodes run on more efficient equipment).
        vdd_v: Nominal supply voltage.
        eda_productivity: ``eta_EDA(p)`` in (0, 1]; design time scales as
            ``1 / eda_productivity`` so mature nodes (value close to 1)
            close designs faster.
        leakage_a_per_mm2: Leakage current density used by the operational
            model (amperes per mm² of die area).
        cap_nf_per_mm2: Switched-capacitance density used by the operational
            model (nanofarads per mm² of die area).
        year_introduced: First year of high-volume manufacturing; only used
            for reporting.
    """

    feature_nm: float
    defect_density_per_cm2: float
    clustering_alpha: float
    logic_density_mtr_per_mm2: float
    memory_density_mtr_per_mm2: float
    analog_density_mtr_per_mm2: float
    epa_kwh_per_cm2: float
    epla_rdl_kwh_per_cm2: float
    epla_bridge_kwh_per_cm2: float
    gas_kg_per_cm2: float
    material_kg_per_cm2: float
    equipment_efficiency: float
    vdd_v: float
    eda_productivity: float
    leakage_a_per_mm2: float
    cap_nf_per_mm2: float
    year_introduced: int

    @property
    def name(self) -> str:
        """Human-readable node name, e.g. ``"7nm"``."""
        if float(self.feature_nm).is_integer():
            return f"{int(self.feature_nm)}nm"
        return f"{self.feature_nm:g}nm"

    def density_for(self, design_type: "str") -> float:
        """Return transistor density (MTr/mm²) for a design-type name.

        Accepts ``"logic"``/``"digital"``, ``"memory"``/``"sram"`` and
        ``"analog"``/``"io"``.  The richer :class:`DesignType` interface
        lives in :mod:`repro.technology.scaling`.
        """
        key = design_type.lower()
        if key in ("logic", "digital", "compute"):
            return self.logic_density_mtr_per_mm2
        if key in ("memory", "sram", "cache"):
            return self.memory_density_mtr_per_mm2
        if key in ("analog", "io", "mixed_signal", "phy"):
            return self.analog_density_mtr_per_mm2
        raise KeyError(f"unknown design type {design_type!r}")

    def validate(self) -> None:
        """Raise :class:`ValueError` if any field is outside a sane range."""
        checks: List[Tuple[str, float, float, float]] = [
            ("defect_density_per_cm2", self.defect_density_per_cm2, 0.01, 1.0),
            ("clustering_alpha", self.clustering_alpha, 0.5, 10.0),
            ("logic_density_mtr_per_mm2", self.logic_density_mtr_per_mm2, 1.0, 400.0),
            ("memory_density_mtr_per_mm2", self.memory_density_mtr_per_mm2, 1.0, 400.0),
            ("analog_density_mtr_per_mm2", self.analog_density_mtr_per_mm2, 1.0, 400.0),
            ("epa_kwh_per_cm2", self.epa_kwh_per_cm2, 0.1, 10.0),
            ("epla_rdl_kwh_per_cm2", self.epla_rdl_kwh_per_cm2, 0.01, 1.0),
            ("epla_bridge_kwh_per_cm2", self.epla_bridge_kwh_per_cm2, 0.01, 1.0),
            ("gas_kg_per_cm2", self.gas_kg_per_cm2, 0.01, 1.0),
            ("material_kg_per_cm2", self.material_kg_per_cm2, 0.05, 2.0),
            ("equipment_efficiency", self.equipment_efficiency, 0.0, 1.0),
            ("vdd_v", self.vdd_v, 0.4, 2.0),
            ("eda_productivity", self.eda_productivity, 0.05, 1.0),
            ("leakage_a_per_mm2", self.leakage_a_per_mm2, 0.0, 1.0),
            ("cap_nf_per_mm2", self.cap_nf_per_mm2, 0.0, 10.0),
        ]
        for field_name, value, low, high in checks:
            if not low <= value <= high:
                raise ValueError(
                    f"{self.name}: {field_name}={value} outside [{low}, {high}]"
                )


def _node(
    nm: float,
    d0: float,
    logic: float,
    memory: float,
    analog: float,
    epa: float,
    epla_rdl: float,
    epla_bridge: float,
    gas: float,
    eta_eq: float,
    vdd: float,
    eta_eda: float,
    leak: float,
    cap: float,
    year: int,
    alpha: float = 3.0,
    material: float = 0.5,
) -> TechnologyNode:
    """Shorthand constructor used to keep the default table readable."""
    return TechnologyNode(
        feature_nm=nm,
        defect_density_per_cm2=d0,
        clustering_alpha=alpha,
        logic_density_mtr_per_mm2=logic,
        memory_density_mtr_per_mm2=memory,
        analog_density_mtr_per_mm2=analog,
        epa_kwh_per_cm2=epa,
        epla_rdl_kwh_per_cm2=epla_rdl,
        epla_bridge_kwh_per_cm2=epla_bridge,
        gas_kg_per_cm2=gas,
        material_kg_per_cm2=material,
        equipment_efficiency=eta_eq,
        vdd_v=vdd,
        eda_productivity=eta_eda,
        leakage_a_per_mm2=leak,
        cap_nf_per_mm2=cap,
        year_introduced=year,
    )


#: Default node records.  Logic density scales aggressively with node;
#: memory density scales more slowly; analog density barely scales —
#: the property the paper exploits for technology mix-and-match.
_DEFAULT_NODES: Tuple[TechnologyNode, ...] = (
    #      nm   D0     logic  mem    analog EPA   eRDL  eBrg  gas   eta   Vdd   eEDA  leak    cap   year
    _node(3.0, 0.30, 150.0, 128.0, 42.0, 3.50, 0.200, 0.350, 0.50, 1.00, 0.65, 0.60, 0.060, 1.90, 2023),
    _node(5.0, 0.26, 134.0, 122.0, 41.0, 3.10, 0.190, 0.330, 0.45, 1.00, 0.68, 0.65, 0.055, 1.80, 2021),
    _node(7.0, 0.22, 95.0, 112.0, 40.0, 2.60, 0.180, 0.300, 0.38, 1.00, 0.70, 0.70, 0.050, 1.70, 2019),
    _node(10.0, 0.15, 61.0, 98.0, 38.5, 2.15, 0.160, 0.260, 0.32, 0.95, 0.75, 0.75, 0.042, 1.55, 2017),
    _node(14.0, 0.12, 33.0, 82.0, 36.0, 1.80, 0.130, 0.220, 0.26, 0.90, 0.80, 0.80, 0.035, 1.40, 2015),
    _node(22.0, 0.10, 16.5, 48.0, 30.0, 1.45, 0.100, 0.180, 0.21, 0.85, 0.90, 0.85, 0.028, 1.20, 2012),
    _node(28.0, 0.09, 12.0, 35.0, 28.0, 1.25, 0.090, 0.150, 0.18, 0.82, 1.00, 0.88, 0.024, 1.05, 2011),
    _node(40.0, 0.08, 7.5, 22.0, 22.0, 1.00, 0.070, 0.120, 0.14, 0.78, 1.10, 0.92, 0.018, 0.90, 2009),
    _node(65.0, 0.07, 5.0, 12.0, 15.0, 0.80, 0.050, 0.100, 0.10, 0.70, 1.20, 1.00, 0.012, 0.75, 2006),
)


class TechnologyTable:
    """Registry of :class:`TechnologyNode` records with interpolation.

    The table is keyed by feature size in nanometres.  ``get`` returns an
    exact record when one exists; for intermediate nodes it builds an
    interpolated record by geometric (log-log) interpolation between the two
    surrounding tabulated nodes, which matches how scaling trends are usually
    reported.  Extrapolation outside the tabulated range is refused.
    """

    def __init__(self, nodes: Optional[Iterable[TechnologyNode]] = None):
        records = list(nodes) if nodes is not None else list(_DEFAULT_NODES)
        if not records:
            raise ValueError("a TechnologyTable needs at least one node")
        self._nodes: Dict[float, TechnologyNode] = {}
        for record in records:
            record.validate()
            self._nodes[float(record.feature_nm)] = record

    # -- container protocol -------------------------------------------------
    def __contains__(self, node: NodeKey) -> bool:
        try:
            key = _normalise_node_key(node)
        except KeyError:
            return False
        return key in self._nodes

    def __iter__(self) -> Iterator[TechnologyNode]:
        for key in sorted(self._nodes):
            yield self._nodes[key]

    def __len__(self) -> int:
        return len(self._nodes)

    # -- lookup --------------------------------------------------------------
    @property
    def feature_sizes(self) -> List[float]:
        """Sorted list of tabulated feature sizes in nm (ascending)."""
        return sorted(self._nodes)

    def add(self, node: TechnologyNode, replace: bool = False) -> None:
        """Register ``node``.  Refuses to overwrite unless ``replace``."""
        node.validate()
        key = float(node.feature_nm)
        if key in self._nodes and not replace:
            raise ValueError(f"node {node.name} already registered")
        self._nodes[key] = node

    def get(self, node: NodeKey) -> TechnologyNode:
        """Return the record for ``node``, interpolating if necessary."""
        key = _normalise_node_key(node)
        exact = self._nodes.get(key)
        if exact is not None:
            return exact
        return self._interpolate(key)

    def __getitem__(self, node: NodeKey) -> TechnologyNode:
        return self.get(node)

    # -- interpolation -------------------------------------------------------
    def _interpolate(self, feature_nm: float) -> TechnologyNode:
        sizes = self.feature_sizes
        if feature_nm < sizes[0] or feature_nm > sizes[-1]:
            raise KeyError(
                f"node {feature_nm}nm outside tabulated range "
                f"[{sizes[0]}nm, {sizes[-1]}nm]; register it explicitly"
            )
        lower = max(s for s in sizes if s <= feature_nm)
        upper = min(s for s in sizes if s >= feature_nm)
        lo, hi = self._nodes[lower], self._nodes[upper]
        if lower == upper:
            return lo
        # Log-log interpolation weight.
        weight = (math.log(feature_nm) - math.log(lower)) / (
            math.log(upper) - math.log(lower)
        )

        def lerp(a: float, b: float) -> float:
            if a <= 0 or b <= 0:
                return a + (b - a) * weight
            return math.exp(math.log(a) + (math.log(b) - math.log(a)) * weight)

        return TechnologyNode(
            feature_nm=feature_nm,
            defect_density_per_cm2=lerp(lo.defect_density_per_cm2, hi.defect_density_per_cm2),
            clustering_alpha=lerp(lo.clustering_alpha, hi.clustering_alpha),
            logic_density_mtr_per_mm2=lerp(lo.logic_density_mtr_per_mm2, hi.logic_density_mtr_per_mm2),
            memory_density_mtr_per_mm2=lerp(lo.memory_density_mtr_per_mm2, hi.memory_density_mtr_per_mm2),
            analog_density_mtr_per_mm2=lerp(lo.analog_density_mtr_per_mm2, hi.analog_density_mtr_per_mm2),
            epa_kwh_per_cm2=lerp(lo.epa_kwh_per_cm2, hi.epa_kwh_per_cm2),
            epla_rdl_kwh_per_cm2=lerp(lo.epla_rdl_kwh_per_cm2, hi.epla_rdl_kwh_per_cm2),
            epla_bridge_kwh_per_cm2=lerp(lo.epla_bridge_kwh_per_cm2, hi.epla_bridge_kwh_per_cm2),
            gas_kg_per_cm2=lerp(lo.gas_kg_per_cm2, hi.gas_kg_per_cm2),
            material_kg_per_cm2=lerp(lo.material_kg_per_cm2, hi.material_kg_per_cm2),
            equipment_efficiency=lerp(lo.equipment_efficiency, hi.equipment_efficiency),
            vdd_v=lerp(lo.vdd_v, hi.vdd_v),
            eda_productivity=lerp(lo.eda_productivity, hi.eda_productivity),
            leakage_a_per_mm2=lerp(lo.leakage_a_per_mm2, hi.leakage_a_per_mm2),
            cap_nf_per_mm2=lerp(lo.cap_nf_per_mm2, hi.cap_nf_per_mm2),
            year_introduced=int(round(lerp(lo.year_introduced, hi.year_introduced))),
        )

    # -- convenience ---------------------------------------------------------
    def normalised_defect_density(self, reference: NodeKey = 65) -> Dict[float, float]:
        """Defect density of every node normalised to ``reference`` (Fig 6a)."""
        ref = self.get(reference).defect_density_per_cm2
        return {
            node.feature_nm: node.defect_density_per_cm2 / ref for node in self
        }


#: Module-level default table shared by the rest of the framework.
DEFAULT_TECHNOLOGY_TABLE = TechnologyTable()
