"""The traced divisor table kept as its winners: a sequence equal to the
tuple of its rows, whose JSON text and table blocks are written from
running cell texts."""

import dataclasses
import heapq
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    IterationGuardError,
    TiePolicy,
    VoteTally,
    dumps,
    highest_averages,
)
from apportion import cli, methods, types
from apportion.types import DivisorStep, DivisorSteps, TraceTable

# A party holding n seats bids v / (q n + p): (p, q) per method.
_DIVISORS = {DHONDT: (1, 1), SAINTE_LAGUE: (1, 2)}


def _per_step_rows(tally, house_size, method, tie):
    """The table's rows as the engine built them a seat at a time, each row
    a ``DivisorStep`` of tuples copied from the running lists."""
    p, q = _DIVISORS[method]
    votes, ids, ranks = tally.votes, tally.party_ids, tie.ranks(tally)
    k = len(votes)
    presents, nexts = [None] * k, [Fraction(v, p) for v in votes]
    seats = [0] * k
    shift = 2 * (q * house_size + p).bit_length()
    heap = [(-((v << shift) // p), r, i, p) for i, (v, r) in enumerate(zip(votes, ranks))]
    heapq.heapify(heap)
    rows = []
    for step in range(1, house_size + 1):
        _, rank, best, den = heap[0]
        rows.append(DivisorStep(step, tuple(seats), tuple(presents), tuple(nexts), ids[best]))
        presents[best] = nexts[best]
        nexts[best] = Fraction(votes[best], den + q)
        seats[best] += 1
        heapq.heapreplace(heap, (-((votes[best] << shift) // (den + q)), rank, best, den + q))
    return tuple(rows)


def _check_table(steps, rows, cuts=()):
    """``steps`` against the reference ``rows``: equality both ways, hash,
    length, the first and last row, eight fixed slices and ``cuts``,
    pickling, and that its fields refuse assignment and deletion."""
    assert type(steps) is DivisorSteps
    assert all(type(row) is DivisorStep for row in steps)
    assert steps == rows and rows == steps
    assert not (steps != rows or rows != steps)
    assert tuple(steps) == rows
    assert hash(steps) == hash(rows)
    assert len(steps) == len(rows)
    if rows:
        assert (steps[0], steps[-1]) == (rows[0], rows[-1])
        assert steps != rows[:-1] and rows[:-1] != steps
        assert steps[len(rows) // 2] == rows[len(rows) // 2]
    with pytest.raises(IndexError):
        steps[len(rows)]
    for cut in (slice(None), slice(1, None), slice(None, None, 2), slice(-2, None),
                slice(5, 1), slice(None, None, -1), slice(-2, 0, -3), slice(3, -1, 4),
                *cuts):
        assert steps[cut] == rows[cut]
    copy = pickle.loads(pickle.dumps(steps))
    assert type(copy) is DivisorSteps and copy == steps
    with pytest.raises(AttributeError, match="cannot assign to field 'winners'"):
        steps.winners = ()
    with pytest.raises(AttributeError, match="cannot delete field 'winners'"):
        del steps.winners


def _check_texts(trace):
    """The JSON text and the table text of ``trace`` against the same trace
    with its rows in a tuple, which both writers take a row at a time."""
    rows = dataclasses.replace(trace, steps=tuple(trace.steps))
    assert dumps(trace) == dumps(rows)
    assert dumps({"deeper": [[trace.steps]]}) == dumps({"deeper": [[rows.steps]]})
    assert cli._trace_text(trace) == cli._trace_text(rows)


_TIE_PRONE = st.one_of(
    st.integers(0, 6),  # zeros and equal votes
    st.integers(1, 8).map(lambda m: 125 * m),  # small multiples of one unit
)
_NAMES = st.sampled_from(["A", "Bee", "", " ", "a ", "Café", "☃☃", "\U0001f600", "x%sy"])


@st.composite
def tables(draw):
    """Tie-prone votes (or one party), either signpost and either tie policy,
    with party ids of uneven widths: (tally, house, method, tie)."""
    k = draw(st.integers(1, 12) | st.just(1))
    votes = draw(st.lists(_TIE_PRONE, min_size=k, max_size=k).filter(any))
    names = draw(st.lists(_NAMES, min_size=k, max_size=k))
    ids = tuple(f"{name}{i}" for i, name in enumerate(names))
    house = draw(st.integers(0, 300) | st.just(0))
    tie = draw(st.just(TiePolicy()) | st.integers(0, 2**64 - 1).map(
        lambda seed: TiePolicy("random", seed)))
    return VoteTally(ids, tuple(votes)), house, draw(st.sampled_from(sorted(_DIVISORS))), tie


#: Slices of a table of up to 300 rows: bounds negative, past either end
#: or none, steps of either sign.
_BOUNDS = st.none() | st.integers(-320, 320)
_CUTS = st.lists(st.builds(slice, _BOUNDS, _BOUNDS, st.none() | st.integers(-9, 9).filter(bool)),
                max_size=4)


@settings(max_examples=300, deadline=None)
@given(tables(), _CUTS)
@example((VoteTally(("A",), (7,)), 5, DHONDT, TiePolicy()), [])
@example((VoteTally(("A", "B"), (3, 3)), 0, SAINTE_LAGUE, TiePolicy()), [])
def test_the_table_is_the_tuple_of_its_rows(case, cuts):
    tally, house, method, tie = case
    allocation, trace = highest_averages(tally, house, method, tie)
    _check_table(trace.steps, _per_step_rows(tally, house, method, tie), cuts)
    assert trace.final_seats == allocation.seats
    _check_texts(trace)


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
@pytest.mark.parametrize("votes", [
    (10**400 + 1, 3 * 10**399, 7),  # bids past the float range: exact rounding in the table
    (1, 10**30 + 3, 10**30 + 3),
], ids=["past-float", "wide-and-tied"])
def test_wide_bids_write_as_the_rows_do(votes, method):
    _, trace = highest_averages(VoteTally(("A", "B", "C"), votes), 40, method)
    _check_table(trace.steps, _per_step_rows(VoteTally(("A", "B", "C"), votes), 40, method,
                                             TiePolicy()))
    _check_texts(trace)


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
def test_the_k20_n2000_table_writes_as_the_rows_do(method):
    votes = tuple(1_000 + 7_919 * i * i for i in range(20))
    _, trace = highest_averages(VoteTally(tuple(f"P{i}" for i in range(20)), votes), 2_000,
                                method)
    _check_texts(trace)


def test_an_index_or_a_slice_builds_only_its_own_rows(monkeypatch):
    # k = 20 and N = 16,666: the largest table the cell limit allows at k = 20
    votes = tuple(1_000 + 7_919 * i * i for i in range(20))
    _, trace = highest_averages(VoteTally(tuple(f"P{i}" for i in range(20)), votes), 16_666)
    steps, built = trace.steps, []

    def counted(*fields):
        built.append(fields[0])
        return DivisorStep(*fields)

    monkeypatch.setattr(types, "DivisorStep", counted)
    last = steps[-1]
    assert built == [16_666] and last.step == 16_666
    assert sum(last.seats_before) == 16_665
    assert last.winner == steps.party_ids[steps.winners[-1]]
    assert steps[-2:] == (steps[16_664], last)
    assert steps[100:40:-30] == (steps[100], steps[70])
    assert built == [16_666, 16_665, 16_666, 16_665, 71, 101, 101, 71]


def test_untraced_runs_keep_no_table():
    _, trace = highest_averages(VoteTally(("A", "B"), (3, 1)), 4, with_trace=False)
    assert trace.steps == ()


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
def test_the_guards_keep_their_messages(method, monkeypatch):
    tally = VoteTally(("A", "B", "C"), (600, 300, 100))
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
    with pytest.raises(IterationGuardError) as caught:
        highest_averages(tally, 6, method)
    assert str(caught.value) == "the run would build at least 6 divisor table rows (limit 5)"
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 50_000)
    monkeypatch.setattr(methods, "MAX_TRACE_CELLS", 44)
    assert len(highest_averages(tally, 4, method)[1].steps) == 4  # 36 cells
    with pytest.raises(IterationGuardError) as caught:
        highest_averages(tally, 5, method)
    assert str(caught.value) == (
        "the run would build at least 45 cells in 5 divisor table rows (limit 44 cells)"
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts ints of any length",
)
@pytest.mark.parametrize("house", [0, 3])
def test_a_number_past_the_digit_limit_fails_as_the_rows_do(house):
    digits = sys.get_int_max_str_digits()
    tally = VoteTally(("A", "B"), (5, 10**digits))  # B's first bid is past the limit
    _, trace = highest_averages(tally, house)
    rows = dataclasses.replace(trace, steps=tuple(trace.steps))
    for write in (dumps, cli._trace_text):
        if not house:  # an empty table writes no bid
            assert write(trace) == write(rows)
            continue
        with pytest.raises(ValueError) as expected:
            write(rows)
        with pytest.raises(ValueError) as caught:
            write(trace)
        assert str(caught.value) == str(expected.value)
        assert "integer string conversion" in str(caught.value)


def test_decoded_rows_equal_the_engines_table():
    tally = VoteTally(("A", "B", "C"), (53, 24, 23))
    _, trace = highest_averages(tally, 10, SAINTE_LAGUE)
    rows = TraceTable("divisor", SAINTE_LAGUE, tally.party_ids, tuple(trace.steps),
                      trace.final_seats)
    assert trace == rows and rows == trace and hash(trace) == hash(rows)
    assert repr(trace.steps) == f"DivisorSteps({tuple(trace.steps)!r})"
