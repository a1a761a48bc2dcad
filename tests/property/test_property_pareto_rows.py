"""Property-based parity of Pareto fronts over stored rows (hypothesis).

:func:`repro.core.explorer.pareto_front` reads the objective values of
:class:`repro.sweep.store.SweepRow` points straight from their record
dicts, a column at a time.  The same records behind a plain
``objective()`` adapter take the per-point path.  Both must give the same
front (the same points in the same order), the same warnings, and the
same exception type and message, with and without NumPy, for float,
NaN, infinite, int, bool, string and ``None`` values and missing keys.
"""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import explorer
from repro.sweep.store import SweepRow, rows_from_records

NAMES = ("total_carbon_g", "cost_usd", "power_w")

#: Coarse float grids keep ties and exact duplicates frequent.
FLOATS = [0.0, -0.0, 1.0, 2.0, 2.5, 3.0, 1e300, float("inf"), float("nan")]

#: Values the per-point path converts or rejects; ``KeyError`` marks a
#: missing key.
ODD_VALUES = [None, 1, 0, True, False, "1.5", "abc", "nan", 10**400, KeyError]


class RecordPoint:
    """The same record behind the plain ``objective()`` protocol."""

    def __init__(self, record):
        self.record = record

    def objective(self, name):
        return SweepRow(self.record).objective(name)


def front_outcome(points, objectives, on_nan):
    """``(front positions, warnings, exception)`` of one ``pareto_front`` call."""
    position = {id(point): index for index, point in enumerate(points)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            front = explorer.pareto_front(points, objectives, on_nan=on_nan)
        except Exception as exc:  # noqa: BLE001 - the exception is the result
            result = ("raised", type(exc), str(exc))
        else:
            result = ("front", [position[id(point)] for point in front])
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def record_sets(draw):
    """Records with float objectives, a few odd values, any size up to 400."""
    size = draw(st.integers(0, 12) | st.integers(250, 400))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.lists(st.sampled_from(FLOATS), min_size=1, max_size=5))
    records = [
        {"scenario": index, **{name: rng.choice(grid) for name in NAMES}}
        for index in range(size)
    ]
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        record = rng.choice(records)
        name = draw(st.sampled_from(NAMES))
        value = draw(st.sampled_from(ODD_VALUES))
        if value is KeyError:
            record.pop(name, None)
        else:
            record[name] = value
    return records


@pytest.mark.parametrize("with_numpy", [True, False])
@settings(max_examples=150)
@given(
    records=record_sets(),
    objectives=st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
    on_nan=st.sampled_from(["exclude", "raise"]),
)
def test_rows_and_objective_adapter_give_the_same_front(
    with_numpy, records, objectives, on_nan
):
    if with_numpy and explorer._np is None:
        pytest.skip("NumPy is not installed")
    with pytest.MonkeyPatch.context() as patch:
        if not with_numpy:
            patch.setattr(explorer, "_np", None)
        rows = front_outcome(rows_from_records(records), objectives, on_nan)
        adapted = front_outcome([RecordPoint(r) for r in records], objectives, on_nan)
    assert rows == adapted


def test_rows_wrap_their_records_without_copying():
    records = [{"total_carbon_g": 1.0}, {"total_carbon_g": 2.0}]
    assert [row.record for row in rows_from_records(records)] == records
    assert all(row.record is record for row, record in zip(rows_from_records(records), records))


def test_the_batch_form_declines_what_objective_would_convert():
    rows = rows_from_records([{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}])
    assert SweepRow.objective_columns(rows, ["a", "b"]) == [[1.0, 3.0], [2.0, 4.0]]
    for odd in (1, True, None, "1.5"):
        odd_rows = rows + rows_from_records([{"a": odd, "b": 0.0}])
        assert SweepRow.objective_columns(odd_rows, ["a", "b"]) is None
    assert SweepRow.objective_columns(rows, ["a", "missing"]) is None
    assert SweepRow.objective_columns(rows + [RecordPoint({"a": 1.0})], ["a"]) is None
