"""Property-based differential test of the JSONL store readers (hypothesis).

The readers in :mod:`repro.sweep.store` decode lines with the JSON
scanner directly, and the resume scan reads only the ``scenario`` id of
each line.  The frozen copies below are the readers as they were before:
plain ``json.loads`` per line, a record dict per line.  On any store —
flat records, nested objects, non-object lines, duplicate ``scenario``
keys, ids of every JSON type, blank and padded lines, torn at any byte and
optionally with a record welded onto the tear — each reader must return
what its oracle returns or raise the same exception type.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.store import (
    completed_scenario_ids,
    iter_records,
    load_records,
    records_by_scenario,
)


# -- the oracles: the readers before the scanner-level decoder ---------------------
def oracle_iter_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def oracle_torn_tail(path):
    with open(path, "r", encoding="utf-8") as handle:
        previous = None
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if previous is not None:
                yield json.loads(previous)
            previous = line
        if previous is not None:
            try:
                yield json.loads(previous)
            except json.JSONDecodeError:
                return


def oracle_completed_scenario_ids(path):
    ids = set()
    if not path.is_file() or path.stat().st_size == 0:
        return ids
    for record in oracle_torn_tail(path):
        scenario_id = record.get("scenario")
        if scenario_id is not None:
            ids.add(int(scenario_id))
    return ids


def oracle_records_by_scenario(path):
    records = {}
    if not path.is_file() or path.stat().st_size == 0:
        return records
    for record in oracle_torn_tail(path):
        scenario_id = record.get("scenario")
        if scenario_id is not None:
            records.setdefault(int(scenario_id), record)
    return records


# -- stores ------------------------------------------------------------------------
KEYS = st.sampled_from(
    ["scenario", "total_carbon_g", "cost_usd", "nodes", "scenario ", "{", '"', ""]
)
STRINGS = st.sampled_from(
    ["ga102", "{", "}", '"scenario": 1', '{"scenario": 2}', "\\", "\n", "é", ""]
) | st.text(max_size=4)
SCALARS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(),
    STRINGS,
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=5,
)
IDS = st.one_of(
    st.integers(-3, 10**6),
    st.integers(-3, 10**6),
    st.floats(),
    st.sampled_from(["7", " 8", "1.5", "x", ""]),
    st.booleans(),
    st.none(),
    VALUES,
)


def object_text(pairs):
    """A JSON object from ``(key, value)`` pairs, duplicates kept."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


@st.composite
def record_lines(draw, ids=st.integers(0, 40)):
    """A flat store record (sorted keys, an int id unless ``ids`` says else)."""
    pairs = draw(st.lists(st.tuples(KEYS, SCALARS | st.lists(SCALARS, max_size=3)), max_size=5))
    pairs.append(("scenario", draw(ids)))
    return object_text(sorted(pairs, key=lambda pair: pair[0]))


@st.composite
def odd_lines(draw):
    """Nested objects, duplicate and odd ids, non-object and garbage lines."""
    kind = draw(st.integers(0, 3))
    if kind == 0:  # duplicate or odd-typed scenario keys anywhere in the object
        pairs = draw(st.lists(st.tuples(KEYS, VALUES), max_size=4))
        for _ in range(draw(st.integers(1, 2))):
            pairs.insert(draw(st.integers(0, len(pairs))), ("scenario", draw(IDS)))
        return object_text(pairs)
    if kind == 1:  # nested objects, one of them carrying a scenario key
        inner = object_text([("scenario", draw(IDS))])
        return '{"outer": ' + inner + ', "rows": [' + inner + "]}"
    if kind == 2:  # any JSON value that is not an object
        return json.dumps(draw(st.lists(VALUES, max_size=3) | SCALARS))
    return draw(st.sampled_from(["garbage", "{", '{"scenario": 1} x', "[1, 2", '{"a":}']))


PADDING = st.text(alphabet=" \t\x0c\x1f", max_size=2)


@st.composite
def padded(draw, lines):
    return draw(PADDING) + draw(lines) + draw(PADDING)


SPECIAL_LINES = st.one_of(
    record_lines(IDS),
    odd_lines(),
    padded(record_lines()),
    st.sampled_from(["", "  ", "\t"]),
)


@st.composite
def stores(draw):
    """Store bytes: flat records with one or two special lines among them,
    torn at a random byte, maybe with a record welded onto the tear."""
    lines = draw(st.lists(record_lines(), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(SPECIAL_LINES))
    data = "\n".join(lines).encode("utf-8") + draw(st.sampled_from([b"", b"\n", b"\r\n"]))
    data = data[: draw(st.integers(0, len(data)) | st.just(len(data)))]
    if draw(st.booleans()):
        data += draw(record_lines()).encode("utf-8") + draw(st.sampled_from([b"", b"\n"]))
    return data


def outcome(call):
    """``("ok", canonical value)`` or ``("raised", exception type)``."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return ("raised", type(exc))
    if isinstance(value, set):
        value = sorted(value)
    return ("ok", repr(value))  # repr: NaN values compare equal


@settings(max_examples=400)
@given(data=stores())
def test_readers_match_their_oracles(data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "store.jsonl"
        path.write_bytes(data)
        pairs = [
            (lambda: list(iter_records(path)), lambda: list(oracle_iter_records(path))),
            (lambda: load_records(path), lambda: list(oracle_iter_records(path))),
            (lambda: completed_scenario_ids(path), lambda: oracle_completed_scenario_ids(path)),
            (lambda: records_by_scenario(path), lambda: oracle_records_by_scenario(path)),
        ]
        for new, old in pairs:
            assert outcome(new) == outcome(old)
        assert os.path.getsize(path) == len(data)  # readers never write


@given(records=st.lists(record_lines(), min_size=1, max_size=5), cut=st.integers(1, 30))
def test_only_the_tail_line_may_be_torn(records, cut):
    """A tear before the last line raises in both; at the tail it is dropped."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "store.jsonl"
        whole = "\n".join(records)
        torn = whole[: max(0, len(whole) - cut)]
        path.write_text(torn + "\n", encoding="utf-8")
        assert outcome(lambda: completed_scenario_ids(path)) == outcome(
            lambda: oracle_completed_scenario_ids(path)
        )
        path.write_text(torn + "\n" + records[0] + "\n", encoding="utf-8")
        assert outcome(lambda: completed_scenario_ids(path)) == outcome(
            lambda: oracle_completed_scenario_ids(path)
        )


@pytest.mark.parametrize(
    "last_line",
    [
        '{"scenario": "x"}',  # decodes; its id does not convert: raises
        '{"scenario": 1.5}',
        '{"scenario": true}',
        '{"scenario": "7"}',
        '{"scenario": NaN}',
        '{"scenario": {"scenario": 3}}',
        '{"scenario": 2, "scenario": null}',
        '{"scenario": ' + "9" * 5000 + "}",  # beyond int's digit limit
        "[1, 2]",
        '{"scenario": 1',  # torn: dropped
        '{"scenario": 1} x',
    ],
)
def test_the_last_line_against_the_oracles(tmp_path, last_line):
    path = tmp_path / "store.jsonl"
    path.write_text('{"scenario": 0}\n' + last_line + "\n", encoding="utf-8")
    assert outcome(lambda: completed_scenario_ids(path)) == outcome(
        lambda: oracle_completed_scenario_ids(path)
    )
    assert outcome(lambda: records_by_scenario(path)) == outcome(
        lambda: oracle_records_by_scenario(path)
    )
    assert outcome(lambda: load_records(path)) == outcome(
        lambda: list(oracle_iter_records(path))
    )
