"""Record blocks: the records of one template group, held as shared values
plus one tuple per row.

The batch kernel evaluates a whole template group at once, and a
:class:`RecordBlock` carries that group's results to the store without
turning them into one dict per row.  ``shared`` is one record-shaped dict —
every key, in record order — holding the values every row has in common
(base, nodes, packaging, system, areas, power, ...); ``varying`` names the
keys whose values differ, and ``rows`` holds one tuple of those values per
row.  :meth:`RecordBlock.records` rebuilds dicts identical — keys, key
order, values and types — to the ones the per-record path produced: a copy
of ``shared`` updated with the row (an update keeps the key order).

Blocks are plain data (picklable, no references into the kernel), so pool
workers ship them to the parent instead of per-record dicts.  A
:class:`RecordSequence` holds the blocks of a whole sweep and reads as one
flat sequence of records, building a row's dict only when it is read.
"""

from __future__ import annotations

import collections.abc
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

Record = Dict[str, Any]


class RecordBlock:
    """Records of one group as one shared record plus per-row tuples.

    Args:
        shared: Every record key, in record order, mapped to the value
            shared by every row (a ``varying`` key's value is ignored).
        varying: The keys whose values differ from row to row.
        rows: One tuple of ``varying`` values per row, in row order.
        lists: The keys of ``shared`` outside ``varying`` whose list value
            every record gets its own copy of, as a per-record dict owns
            its lists; found by scanning ``shared`` when not given.
    """

    __slots__ = ("shared", "varying", "rows", "lists")

    def __init__(
        self,
        shared: Record,
        varying: Tuple[str, ...],
        rows: Sequence[Tuple[Any, ...]],
        lists: Optional[Tuple[str, ...]] = None,
    ):
        self.shared = shared
        self.varying = varying
        self.rows = rows
        if lists is None:
            lists = tuple(
                key
                for key, value in shared.items()
                if type(value) is list and key not in varying
            )
        self.lists = lists

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "RecordBlock":
        """A block holding ``records`` (which must share one key order)."""
        keys = tuple(records[0]) if records else ()
        for record in records:
            if tuple(record) != keys:
                raise ValueError(
                    f"records of one block share their keys; got {list(record)} "
                    f"after {list(keys)}"
                )
        rows = [tuple(record.values()) for record in records]
        return cls(dict.fromkeys(keys), keys, rows, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBlock({self.size} rows, {len(self.shared)} keys)"

    @property
    def size(self) -> int:
        """The number of rows."""
        return len(self.rows)

    def column(self, key: str) -> List[Any]:
        """The values of ``key`` row by row (a shared value is repeated)."""
        if key in self.varying:
            return list(map(itemgetter(self.varying.index(key)), self.rows))
        return [self.shared[key]] * len(self.rows)

    def records(self) -> List[Record]:
        """One dict per row, in row order."""
        shared, varying, lists = self.shared, self.varying, self.lists
        records = []
        for row in self.rows:
            record = shared.copy()
            record.update(zip(varying, row))
            for key in lists:
                record[key] = list(shared[key])
            records.append(record)
        return records

    def record(self, index: int) -> Record:
        """The dict of row ``index``."""
        record = self.shared.copy()
        record.update(zip(self.varying, self.rows[index]))
        for key in self.lists:
            record[key] = list(self.shared[key])
        return record

    def select(self, start: int, stop: int) -> "RecordBlock":
        """Rows ``start`` to ``stop`` (exclusive) as a block of their own."""
        return RecordBlock(self.shared, self.varying, self.rows[start:stop], self.lists)

    def with_constants(self, extra: Mapping[str, Any]) -> "RecordBlock":
        """This block with ``extra`` appended as shared columns."""
        lists = tuple(key for key, value in extra.items() if type(value) is list)
        return RecordBlock(
            {**self.shared, **extra}, self.varying, self.rows, self.lists + lists
        )


class RecordSequence(collections.abc.Sequence):
    """The records of consecutive blocks as one read-only flat sequence.

    Supports ``len``, int (negative too) and slice indexing, iteration and
    ``==``.  A row's dict is built from its block on every read, so a read
    returns a fresh dict: setting or deleting its keys changes nothing held
    here.  A slice is a tuple of records, and the sequence compares equal
    to a tuple (or another :class:`RecordSequence`) holding equal records
    in the same order, as a tuple of the records would.

    Args:
        blocks: The blocks, in row order.
    """

    __slots__ = ("_blocks", "_starts", "_size")

    def __init__(self, blocks: Iterable[RecordBlock] = ()):
        self._blocks: List[RecordBlock] = []
        self._starts: List[int] = []  # the flat index of each block's first row
        size = 0
        for block in blocks:
            if block.rows:
                self._blocks.append(block)
                self._starts.append(size)
                size += len(block.rows)
        self._size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordSequence({self._size} rows in {len(self._blocks)} blocks)"

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return tuple(map(self._record, range(*index.indices(self._size))))
        index = index.__index__()
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("record index out of range")
        return self._record(index)

    def _record(self, index: int) -> Record:
        """The record at flat position ``0 <= index < len(self)``."""
        position = bisect_right(self._starts, index) - 1
        return self._blocks[position].record(index - self._starts[position])

    def __iter__(self) -> Iterator[Record]:
        return chain.from_iterable(map(RecordBlock.records, self._blocks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RecordSequence, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )
