"""The report and spec record types: repr, equality, hash, immutability, validation."""

import pytest

from sweepcover.counting import BoundRow, GrowthRow, InvalidParamsError
from sweepcover.cover import CoverReport
from sweepcover.tree import IldSpec

# (record, its exact repr, an equal record built apart, a record that differs)
RECORDS = [
    (
        IldSpec(delta=3, gamma=1, star_levels=2),
        "IldSpec(delta=3, gamma=1, star_levels=2)",
        IldSpec(3, 1, 2),
        IldSpec(3, 1, 3),
    ),
    (
        CoverReport(valid=False, violations=("coverage",), witness=("b",)),
        "CoverReport(valid=False, violations=('coverage',), witness=('b',))",
        CoverReport(False, ("coverage",), ("b",)),
        CoverReport(False, ("coverage",), ("a",)),
    ),
    (
        BoundRow(n=2, p_value=3, raney_value=12, inequality_holds=False),
        "BoundRow(n=2, p_value=3, raney_value=12, inequality_holds=False)",
        BoundRow(2, 3, 12, False),
        BoundRow(2, 3, 12, True),
    ),
    (
        GrowthRow(n=2, p_value=3, ratio=3.0, nth_root=1.5),
        "GrowthRow(n=2, p_value=3, ratio=3.0, nth_root=1.5)",
        GrowthRow(2, 3, 3.0, 1.5),
        GrowthRow(2, 3, None, 1.5),
    ),
]


@pytest.mark.parametrize("record,text,same,other", RECORDS)
def test_repr(record, text, same, other):
    assert repr(record) == text


@pytest.mark.parametrize("record,text,same,other", RECORDS)
def test_equality_and_hash(record, text, same, other):
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("record,text,same,other", RECORDS)
def test_fields_are_read_only(record, text, same, other):
    # The first field, read off the repr so the test relies on no record API.
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == same


def test_cover_report_witness_defaults_to_none():
    assert CoverReport(True, ()).witness is None
    assert CoverReport(valid=True, violations=()) == CoverReport(True, (), None)


@pytest.mark.parametrize(
    "args,message",
    [
        # delta is checked first, then gamma, then star_levels.
        ((1, -1, 0), "delta must be >= 2, got 1"),
        ((2, -1, 0), "gamma must be >= 0, got -1"),
        ((2, 0, 0), "star_levels must be >= 1, got 0"),
    ],
)
def test_ild_spec_validation(args, message):
    with pytest.raises(InvalidParamsError) as exc:
        IldSpec(*args)
    assert str(exc.value) == message


def test_ild_spec_replace_validates():
    spec = IldSpec(3, 1, 2)
    assert spec._replace(gamma=0) == IldSpec(3, 0, 2)
    with pytest.raises(InvalidParamsError, match="^gamma must be >= 0, got -1$"):
        spec._replace(gamma=-1)


def test_records_are_named_tuples():
    assert IldSpec(3, 1, 2) == (3, 1, 2)
    valid, violations, witness = CoverReport(True, ())
    assert (valid, violations, witness) == (True, (), None)
    assert BoundRow(1, 1, 3, False)._asdict() == {
        "n": 1, "p_value": 1, "raney_value": 3, "inequality_holds": False
    }
