"""Property: a record block renders to exactly the per-record JSONL bytes.

:meth:`repro.sweep.store.ResultStore.append_block` encodes shared
values once, repeated strings once and every row through one format
string.  For any block — NaN/±inf/-0.0/subnormal/large floats, ``100000``
next to ``100000.0`` in one column, strings with ``%``, quotes, escapes
and non-ASCII, ``None``, booleans, lists and dicts, one-row blocks, and
sequences of blocks whose keys differ — the bytes on disk must equal
``json.dumps(record, sort_keys=True) + "\\n"`` per record, and
:meth:`RecordBlock.records` must rebuild the same records.
"""

from __future__ import annotations

import itertools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.sweep.block import RecordBlock
from repro.sweep.store import ResultStore

SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 100000.0, 0.1, 1e-7,
)

TEXT = st.text(alphabet=st.sampled_from('ab%"\\\n\t\x00é€😀 s{}'), max_size=6)

SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from((100000, 0, -1, 1)),
    TEXT,
    st.none(),
    st.booleans(),
)

VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(TEXT, SCALARS, max_size=2),
)

FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS))

#: Per-row column pools: anything, floats only (the format fast path), and
#: numbers that compare equal across int and float.
POOLS = st.one_of(
    st.lists(VALUES, min_size=1, max_size=3),
    st.lists(FLOATS, min_size=1, max_size=4),
    st.lists(st.sampled_from((100000, 100000.0, 1, 1.0, 0, -0.0)), min_size=1, max_size=3),
    st.lists(st.sampled_from((0.0, -0.0, 2.5, math.nan)), min_size=1, max_size=3),
)


@st.composite
def blocks(draw, keys=None):
    if keys is None:
        keys = draw(st.lists(TEXT, max_size=6, unique=True))
    size = draw(st.integers(min_value=1, max_value=12))
    shared, columns = {}, {}
    for key in keys:
        kind = draw(st.sampled_from(("shared", "repeated", "free")))
        if kind == "shared":
            shared[key] = draw(VALUES)
            continue
        shared[key] = None
        if kind == "repeated":
            pool = draw(POOLS)
            columns[key] = draw(
                st.lists(st.sampled_from(pool), min_size=size, max_size=size)
            )
        else:
            values = draw(st.sampled_from((VALUES, FLOATS)))
            columns[key] = draw(st.lists(values, min_size=size, max_size=size))
    rows = list(zip(*columns.values())) if columns else [()] * size
    return RecordBlock(shared, tuple(columns), rows)


def expected_records(block):
    return [
        {
            key: (
                row[block.varying.index(key)] if key in block.varying else block.shared[key]
            )
            for key in block.shared
        }
        for row in block.rows
    ]


def per_record_bytes(records):
    return b"".join(
        (json.dumps(dict(record), sort_keys=True) + "\n").encode("utf-8")
        for record in records
    )


def stored_bytes(block_list):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        with ResultStore(path) as store:
            for block in block_list:
                store.append_block(block)
            assert store.count == sum(block.size for block in block_list)
        return path.read_bytes()


@given(st.lists(blocks(), min_size=1, max_size=3))
def test_block_bytes_equal_per_record_json(block_list):
    expected = b"".join(per_record_bytes(expected_records(b)) for b in block_list)
    assert stored_bytes(block_list) == expected


@given(blocks())
def test_records_rebuild_every_row_in_key_order(block):
    # repr: NaN != NaN under ==, and repr also pins the key order.
    assert repr(block.records()) == repr(expected_records(block))
    assert [repr(block.record(i)) for i in range(block.size)] == [
        repr(record) for record in expected_records(block)
    ]


@given(st.lists(st.dictionaries(st.sampled_from("abcd%é"), VALUES, max_size=4), min_size=1, max_size=8))
def test_records_with_non_uniform_keys_store_like_per_record_appends(records):
    # One block per run of consecutive records with equal key order.
    block_list = [
        RecordBlock.from_records(list(run))
        for _, run in itertools.groupby(records, key=tuple)
    ]
    assert sum(block.size for block in block_list) == len(records)
    assert stored_bytes(block_list) == per_record_bytes(records)


@given(blocks(keys=["scenario", "total_carbon_g", "system_volume"]), st.data())
def test_selected_rows_render_like_their_records(block, data):
    start = data.draw(st.integers(min_value=0, max_value=block.size - 1))
    stop = data.draw(st.integers(min_value=start + 1, max_value=block.size))
    part = block.select(start, stop)
    assert stored_bytes([part]) == per_record_bytes(expected_records(block)[start:stop])
