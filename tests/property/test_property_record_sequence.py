"""Property: a record sequence reads exactly like the flat list of its records.

:class:`repro.sweep.block.RecordSequence` holds the blocks of a sweep and
builds a row's dict only when the row is read.  For any split of a record
list into blocks — empty and one-row blocks included — it must agree with
the flat list in ``len``, every index (negative too), slices, iteration and
``==`` against a tuple, and each read must return a fresh dict.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sweep.block import RecordBlock, RecordSequence

KEYS = ("scenario", "base", "nodes", "total_carbon_g", "cost_usd")

#: A strategy per record key.
VALUES = {
    "scenario": st.integers(min_value=0, max_value=10**6),
    "base": st.sampled_from(("ga102", "emr")),
    "nodes": st.lists(st.sampled_from((7.0, 14.0)), max_size=3),
    "total_carbon_g": st.floats(allow_nan=False),
    "cost_usd": st.floats(allow_nan=False) | st.none(),
}


@st.composite
def split_records(draw):
    """Blocks (some empty, some of one row) and the flat records they hold,
    the records built independently of :class:`RecordBlock`."""
    blocks, flat = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        varying = tuple(draw(st.lists(st.sampled_from(KEYS), unique=True)))
        shared = {key: draw(VALUES[key]) for key in KEYS}
        rows = []
        for _ in range(draw(st.sampled_from((0, 1, 1, 2, 3, 5)))):
            values = {key: draw(VALUES[key]) for key in varying}
            rows.append(tuple(values[key] for key in varying))
            # Every record owns its lists, as a record dict does.
            flat.append({key: values.get(key, shared[key]) for key in KEYS})
            flat[-1]["nodes"] = list(flat[-1]["nodes"])
        blocks.append(RecordBlock(shared, varying, rows))
    return blocks, flat


@given(split_records())
def test_sequence_equals_the_flat_records(case):
    blocks, flat = case
    records = RecordSequence(blocks)
    assert len(records) == len(flat)
    assert list(records) == flat
    assert records == tuple(flat)
    assert tuple(flat) == records
    assert records == RecordSequence(blocks)
    for index in range(-len(flat), len(flat)):
        assert records[index] == flat[index]


@given(
    split_records(),
    st.integers(min_value=-8, max_value=8) | st.none(),
    st.integers(min_value=-8, max_value=8) | st.none(),
    st.sampled_from((None, 1, 2, -1, -3)),
)
def test_slices_are_tuples_of_the_flat_slice(case, start, stop, step):
    blocks, flat = case
    assert RecordSequence(blocks)[start:stop:step] == tuple(flat[start:stop:step])


@given(split_records())
def test_out_of_range_indices_raise(case):
    blocks, flat = case
    records = RecordSequence(blocks)
    for index in (len(flat), -len(flat) - 1):
        try:
            records[index]
        except IndexError:
            continue
        raise AssertionError(f"index {index} of {len(flat)} records did not raise")


@given(split_records())
def test_unequal_sequences_compare_unequal(case):
    blocks, flat = case
    records = RecordSequence(blocks)
    assert records != tuple(flat) + ({"scenario": -1},)
    assert records != list(flat)  # as a tuple is not equal to a list
    if flat:
        changed = dict(flat[-1], scenario=-1)
        assert records != tuple(flat[:-1]) + (changed,)


@given(split_records())
def test_every_read_builds_a_fresh_dict(case):
    blocks, flat = case
    records = RecordSequence(blocks)
    for index in range(len(flat)):
        record = records[index]
        record["scenario"] = "mutated"
        del record["base"]
        assert records[index] == flat[index]
