"""The award log as two int columns: a sequence equal to the tuple of its
rows, whose JSON text is written from the columns."""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    STOP_CAP,
    Allocation,
    STOP_FIXED,
    STOP_RESIDUAL,
    IterationGuardError,
    SeedDistribution,
    TiePolicy,
    VoteTally,
    dumps,
    seeded_sequential_hare,
    sequential_hare,
)
from apportion import cli, methods
from apportion.types import AwardLog, SeatAward, SeatAwards


def _check_log(log, cuts=()):
    """``log`` against the tuple of its rows: equality both ways, hash,
    length, the first and last row, the slices ``cuts``, and its JSON
    text."""
    rows = tuple(log)
    assert type(log) is SeatAwards
    assert all(type(row) is SeatAward for row in rows)
    assert log == rows and rows == log
    assert not (log != rows or rows != log)
    assert hash(log) == hash(rows)
    assert len(log) == len(rows)
    if rows:
        assert (log[0], log[-1]) == (rows[0], rows[-1])
        assert log != rows[:-1] and rows[:-1] != log
    for cut in cuts:
        assert log[cut] == rows[cut]
    assert dumps(log) == dumps(rows)  # the columns against a row at a time


def _table(tally, run):
    """The CLI's two-stage table of ``run``."""
    allocation = Allocation(tally.party_ids, run.totals, run.house_size, "hare",
                            "seeded-sequential", run.tie_events)
    return cli._seeded_table(tally, allocation, run)


def _check_run(run, tally, cuts=()):
    """A two-stage run's log, and its JSON and table against the same run
    with the log's rows in a tuple."""
    _check_log(run.awards, cuts)
    rows = dataclasses.replace(run, awards=tuple(run.awards))
    assert dumps(run) == dumps(rows)
    assert _table(tally, run) == _table(tally, rows)


def _check_fixed_house(log, cuts=()):
    _check_log(log, cuts)
    traces = [AwardLog("sequential", "hare", awards) for awards in (log, tuple(log))]
    assert dumps(traces[0]) == dumps(traces[1])
    assert cli._trace_text(traces[0]) == cli._trace_text(traces[1])


_TALLY = VoteTally(("A", "B", "C"), (6, 3, 3))  # V = 12: most deficits reduce


@pytest.mark.parametrize("case, stop, count", [
    ((_TALLY, 8), None, 8),
    ((_TALLY, 0), None, 0),
    ((VoteTally(("A", "B"), (1, 100)), SeedDistribution(("A", "B"), (5, 0))),
     STOP_RESIDUAL, 400),
    ((VoteTally(("A", "B"), (1, 100)), SeedDistribution(("A", "B"), (5, 0), cap=7)),
     STOP_CAP, 7),
    ((_TALLY, SeedDistribution(_TALLY.party_ids, (4, 0, 0), fixed_extra=9)), STOP_FIXED, 9),
    ((_TALLY, SeedDistribution(_TALLY.party_ids, (2, 1, 1))), STOP_RESIDUAL, 0),
    ((_TALLY, SeedDistribution(_TALLY.party_ids, (4, 0, 0), cap=0)), STOP_CAP, 0),
    ((_TALLY, SeedDistribution(_TALLY.party_ids, (4, 0, 0), fixed_extra=0)), STOP_FIXED, 0),
], ids=["house", "house-empty", "residual", "cap", "fixed", "residual-empty", "cap-empty",
        "fixed-empty"])
def test_each_stop_and_an_empty_log(case, stop, count):
    tally, second = case
    if stop is None:
        log = sequential_hare(tally, second)[1]
        _check_fixed_house(log)
    else:
        run = seeded_sequential_hare(tally, second)
        assert run.stop_reason == stop
        _check_run(run, tally)
        log = run.awards
    assert len(log) == count
    if count and tally is _TALLY:  # deficits whose gcd with V exceeds 1
        assert any(row.deficit.denominator < tally.total_votes for row in log)


#: Slices of a log: bounds negative, past either end or none, steps of
#: either sign.
_BOUNDS = st.none() | st.integers(-60, 60)
_CUTS = st.lists(st.builds(slice, _BOUNDS, _BOUNDS, st.none() | st.integers(-9, 9).filter(bool)),
                 max_size=4)


@st.composite
def award_logs(draw):
    """Tie-prone votes under the fixed-house loop or a two-stage stop:
    (the log, the two-stage run or None, the tally)."""
    k = draw(st.integers(1, 5))
    votes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 6]), min_size=k, max_size=k)
                 .filter(any))
    tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
    tie = draw(st.sampled_from([TiePolicy()]) | st.integers(0, 99).map(
        lambda s: TiePolicy("random", s)))
    stop = draw(st.sampled_from(["house", "residual", "cap", "fixed"]))
    if stop == "house":
        return sequential_hare(tally, draw(st.integers(0, 40)), tie)[1], None, tally
    districts = tuple(draw(st.integers(0, 9)) if v else 0 for v in votes)
    rule = {"residual": {}, "cap": {"cap": draw(st.integers(0, 20))},
            "fixed": {"fixed_extra": draw(st.integers(0, 40))}}[stop]
    run = seeded_sequential_hare(tally, SeedDistribution(tally.party_ids, districts, **rule),
                                 tie)
    return run.awards, run, tally


@settings(max_examples=300, deadline=None)
@given(award_logs(), _CUTS)
def test_the_log_is_the_tuple_of_its_rows(case, cuts):
    log, run, tally = case
    if run is None:
        _check_fixed_house(log, cuts)
    else:
        _check_run(run, tally, cuts)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts ints of any length",
)
def test_a_number_past_the_digit_limit_fails_as_the_rows_do():
    digits = sys.get_int_max_str_digits()
    # each count within the limit, V and the reduced deficits' denominators past it
    huge = VoteTally(("A", "B"), (10**digits - 1, 10**digits - 2))
    pair = VoteTally(("A", "B"), (1, 1))
    runs = [
        seeded_sequential_hare(huge, SeedDistribution(huge.party_ids, (0, 0), fixed_extra=2)),
        seeded_sequential_hare(huge, SeedDistribution(huge.party_ids, (3, 0))),
        # deficits of 1 against a house target of more digits than the limit
        seeded_sequential_hare(pair, SeedDistribution(
            pair.party_ids, (10**digits, 10**digits), fixed_extra=2)),
    ]
    logs = [sequential_hare(huge, 3)[1], *(run.awards for run in runs)]
    assert all(logs)
    cases = [(dumps, log, tuple(log)) for log in logs]
    cases += [(dumps, run, dataclasses.replace(run, awards=tuple(run.awards))) for run in runs]
    cases += [(cli._trace_text, *(AwardLog("sequential", "hare", awards)
                                  for awards in (log, tuple(log))))
              for log in logs[:3]]  # the last one's deficits are small: only its houses are not
    cases += [(lambda run, tally=tally: _table(tally, run), run,
               dataclasses.replace(run, awards=tuple(run.awards)))
              for tally, run in zip((huge, huge, pair), runs)]
    for write, mine, rows in cases:
        with pytest.raises(ValueError) as expected:
            write(rows)
        with pytest.raises(ValueError) as caught:
            write(mine)
        assert str(caught.value) == str(expected.value)
        assert "integer string conversion" in str(caught.value)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts ints of any length",
)
@pytest.mark.parametrize("districts, flags", [("3,0", ()), ("0,0", ("--fixed-extra", "2"))])
def test_the_cli_exits_1_on_a_log_past_the_digit_limit(tmp_path, capsys, districts, flags):
    digits = sys.get_int_max_str_digits()
    a, b = districts.split(",")
    path = tmp_path / "huge.csv"
    votes = "9" * digits, "9" * (digits - 1) + "8"
    path.write_text(f"party,votes,districts\nA,{votes[0]},{a}\nB,{votes[1]},{b}\n")
    assert cli.main([str(path), "--format", "json", *flags]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: a result has a number over the {digits}-digit limit\n")


@pytest.mark.parametrize("rule, flags", [
    ({"fixed_extra": 10}, ("--fixed-extra", "10")), ({"cap": 10}, ("--cap", "10")),
], ids=["fixed", "cap"])
def test_the_two_stage_log_is_bounded_by_the_top_up_guard_not_the_row_limit(
        monkeypatch, tmp_path, capsys, rule, flags):
    # the fixed-house log refuses more rows than MAX_TRACE_ROWS; the
    # two-stage log has a row per top-up, up to MAX_TOPUP_ITERATIONS
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
    tally = VoteTally(("A", "B"), (1, 100))
    run = seeded_sequential_hare(tally, SeedDistribution(tally.party_ids, (5, 0), **rule))
    assert (run.stop_iteration, len(run.awards)) == (10, 10)
    with pytest.raises(IterationGuardError, match="at least 10 award log rows"):
        sequential_hare(tally, 10)
    path = tmp_path / "seeded.csv"
    path.write_text("party,votes,districts\nA,1,5\nB,100,0\n")
    assert cli.main([str(path), "--trace", *flags]) == 0
    out = capsys.readouterr().out
    assert out.count("\n  top-up ") == 10
    assert "  top-up 10 (house 15) -> B" in out
