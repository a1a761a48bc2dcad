"""Lazy, index-addressable view of a sweep grid.

Adaptive search evaluates a *sparse* subset of an exhaustive grid, so it
must never materialise the grid the way :meth:`SweepSpec.expand` does.
:class:`GridSpace` gives every scenario of a :class:`SweepSpec` a stable
integer address — exactly the ``Scenario.index`` the expanded list would
assign — and decodes any address into its :class:`Scenario` on demand via
mixed-radix arithmetic over the spec's axes.

That identity is the whole design: because a search candidate's id *is* its
exhaustive-grid index, every evaluated point streams to the ordinary result
store under its ordinary ``scenario`` id, and the store's crash-resume
machinery (``completed_scenario_ids``, ``repair_torn_tail``) applies to
searches unchanged.

``neighbors`` defines the move set of the refinement strategies: one step
along each *numeric* axis (nodes, lifetimes, volumes, numeric override
axes), with steps taken in sorted-value order so "adjacent" means adjacent
on the number line, not adjacent in the spec's listing order.  Categorical
axes (packaging, carbon sources, explicit node configs, non-numeric
overrides) have no meaningful distance; their diversity comes from the
strategies' random seeding rounds instead.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sweep.spec import Scenario, SweepSpec
from repro.technology.nodes import TechnologyTable

__all__ = ["GridSpace"]


def _is_numeric(values: Sequence[Any]) -> bool:
    return all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in values
    )


@dataclasses.dataclass(frozen=True)
class _Digit:
    """One mixed-radix digit of a grid block.

    Attributes:
        kind: Scenario field the digit feeds (``"node"``, ``"node_config"``,
            ``"packaging"``, ``"override"``, ``"carbon_source"``,
            ``"lifetime"``, ``"volume"``).
        name: Human-readable axis name (the override axis name for
            ``"override"`` digits).
        values: Axis values in spec order — the order ``expand()`` iterates.
        numeric: Whether :meth:`GridSpace.neighbors` may step along it.
        sorted_order: Value indices in ascending value order (numeric only).
        rank: Inverse of ``sorted_order`` — value index to sorted position.
    """

    kind: str
    name: str
    values: Tuple[Any, ...]
    numeric: bool
    sorted_order: Tuple[int, ...] = ()
    rank: Tuple[int, ...] = ()

    @classmethod
    def build(cls, kind: str, name: str, values: Sequence[Any]) -> "_Digit":
        values = tuple(values)
        numeric = len(values) > 1 and _is_numeric(values)
        sorted_order: Tuple[int, ...] = ()
        rank: Tuple[int, ...] = ()
        if numeric:
            order = sorted(range(len(values)), key=lambda i: values[i])
            inverse = [0] * len(values)
            for position, value_index in enumerate(order):
                inverse[value_index] = position
            sorted_order = tuple(order)
            rank = tuple(inverse)
        return cls(
            kind=kind,
            name=name,
            values=values,
            numeric=numeric,
            sorted_order=sorted_order,
            rank=rank,
        )


@dataclasses.dataclass(frozen=True)
class _Block:
    """The contiguous index range of one base system's sub-grid."""

    base_kind: str
    base_ref: str
    offset: int
    size: int
    digits: Tuple[_Digit, ...]
    strides: Tuple[int, ...]


class GridSpace:
    """Index-addressable view of ``spec``'s scenario grid.

    ``space.scenario(i)`` equals ``spec.expand()[i]`` for every ``i`` in
    ``range(space.size)`` — same fields, same shared packaging/override
    objects per combination — without ever allocating the full list.  The
    digit order per base mirrors ``expand()``'s nested products exactly:
    node digits (one per chiplet, or one explicit-config digit), packaging,
    override axes (name-sorted, last varying fastest), carbon source,
    lifetime, volume.  ``table`` is the technology table the spec's node
    values are checked against (``None``: the built-in table).
    """

    def __init__(self, spec: SweepSpec, table: Optional[TechnologyTable] = None):
        self.spec = spec
        self._blocks: List[_Block] = []
        self._offsets: List[int] = []
        # Shared per-combination override dicts, like expand(): scenarios of
        # one combo reference one object, so identity-keyed signature caches
        # downstream keep working.
        self._override_combos: Dict[Tuple[int, ...], Mapping[str, Any]] = {}
        self._override_names = [name for name, _ in spec.overrides]

        offset = 0
        for base_kind, base_ref, chiplets in spec.bases(table):
            digits: List[_Digit] = []
            if spec.node_configs:
                digits.append(
                    _Digit.build("node_config", "node_configs", spec.node_configs)
                )
            elif spec.nodes:
                # all_node_configurations == product(nodes, repeat=count)
                # coerced to floats: one float-valued digit per chiplet,
                # chiplet 0 most significant.
                node_values = tuple(float(node) for node in spec.nodes)
                for chiplet in range(chiplets):
                    digits.append(
                        _Digit.build("node", f"node[{chiplet}]", node_values)
                    )
            if spec.packaging:
                digits.append(_Digit.build("packaging", "packaging", spec.packaging))
            for name, values in spec.overrides:
                digits.append(_Digit.build("override", name, values))
            if spec.carbon_sources:
                digits.append(
                    _Digit.build("carbon_source", "carbon_sources", spec.carbon_sources)
                )
            if spec.lifetimes:
                digits.append(_Digit.build("lifetime", "lifetimes", spec.lifetimes))
            if spec.system_volumes:
                digits.append(
                    _Digit.build("volume", "system_volumes", spec.system_volumes)
                )

            size = 1
            for digit in digits:
                size *= len(digit.values)
            strides: List[int] = []
            stride = size
            for digit in digits:
                stride //= len(digit.values)
                strides.append(stride)
            self._blocks.append(
                _Block(
                    base_kind=base_kind,
                    base_ref=base_ref,
                    offset=offset,
                    size=size,
                    digits=tuple(digits),
                    strides=tuple(strides),
                )
            )
            self._offsets.append(offset)
            offset += size
        self.size = offset

    # -- decoding -------------------------------------------------------------------
    def _locate(self, index: int) -> Tuple[_Block, Tuple[int, ...]]:
        if not 0 <= index < self.size:
            raise IndexError(
                f"scenario index {index} out of range for a {self.size}-point grid"
            )
        block = self._blocks[bisect.bisect_right(self._offsets, index) - 1]
        remainder = index - block.offset
        value_indices = []
        for stride in block.strides:
            value_indices.append(remainder // stride)
            remainder %= stride
        return block, tuple(value_indices)

    def _override_combo(
        self, value_indices: Tuple[int, ...]
    ) -> Optional[Mapping[str, Any]]:
        if not self._override_names:
            return None
        combo = self._override_combos.get(value_indices)
        if combo is None:
            combo = {
                name: values[value_index]
                for (name, values), value_index in zip(
                    self.spec.overrides, value_indices
                )
            }
            self._override_combos[value_indices] = combo
        return combo

    def scenario(self, index: int) -> Scenario:
        """Decode one grid index into its :class:`Scenario`.

        Equal (field for field, shared objects included) to
        ``spec.expand()[index]``.
        """
        block, value_indices = self._locate(index)
        nodes: Optional[Tuple[float, ...]] = None
        node_parts: List[float] = []
        packaging: Optional[Mapping[str, Any]] = None
        fab_source: Optional[str] = None
        lifetime: Optional[float] = None
        volume: Optional[float] = None
        override_indices: List[int] = []
        for digit, value_index in zip(block.digits, value_indices):
            value = digit.values[value_index]
            if digit.kind == "node":
                node_parts.append(value)
            elif digit.kind == "node_config":
                nodes = value
            elif digit.kind == "packaging":
                packaging = value
            elif digit.kind == "override":
                override_indices.append(value_index)
            elif digit.kind == "carbon_source":
                fab_source = value
            elif digit.kind == "lifetime":
                lifetime = value
            elif digit.kind == "volume":
                volume = value
        if node_parts:
            nodes = tuple(node_parts)
        return Scenario(
            index=index,
            base_kind=block.base_kind,
            base_ref=block.base_ref,
            nodes=nodes,
            packaging=packaging,
            fab_source=fab_source,
            lifetime_years=lifetime,
            system_volume=volume,
            overrides=self._override_combo(tuple(override_indices)),
        )

    # -- the refinement move set ------------------------------------------------------
    def neighbors(self, index: int) -> List[int]:
        """Grid indices one numeric-axis step away from ``index``.

        One move per numeric digit and direction: the digit's value is
        replaced by the next value up or down in *sorted value order* while
        every other digit stays fixed.  The result is sorted and
        duplicate-free, so callers iterating it spend their evaluation
        budget deterministically.
        """
        block, value_indices = self._locate(index)
        found = set()
        for position, (digit, value_index) in enumerate(
            zip(block.digits, value_indices)
        ):
            if not digit.numeric:
                continue
            sorted_position = digit.rank[value_index]
            for step in (-1, 1):
                neighbour_position = sorted_position + step
                if 0 <= neighbour_position < len(digit.values):
                    neighbour_value_index = digit.sorted_order[neighbour_position]
                    found.add(
                        index
                        + (neighbour_value_index - value_index)
                        * block.strides[position]
                    )
        return sorted(found)

    def ring(self, seeds: Sequence[int], radius: int) -> List[int]:
        """All indices within ``radius`` numeric-axis steps of ``seeds``.

        Breadth-first over :meth:`neighbors`; the seeds themselves are
        excluded.  Refinement strategies widen the radius when the front
        stalls, trading locality for escape distance.
        """
        seen = set(seeds)
        frontier = sorted(seen)
        collected = set()
        for _ in range(max(0, radius)):
            next_frontier = []
            for member in frontier:
                for neighbour in self.neighbors(member):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        collected.add(neighbour)
                        next_frontier.append(neighbour)
            if not next_frontier:
                break
            frontier = sorted(next_frontier)
        return sorted(collected)
