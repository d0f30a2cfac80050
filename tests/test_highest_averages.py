"""Greedy divisor tables for d'Hondt-Jefferson and Sainte-Laguë."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    InputError,
    IterationGuardError,
    TiePolicy,
    VoteTally,
    check_quota_property,
    highest_averages,
)
from apportion import methods


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
def test_integer_quotas_worked_example(worked_example, method):
    allocation, _ = highest_averages(worked_example, 10, method)
    assert allocation.seats == (6, 3, 1)


def test_dhondt_bid_sequence(three_way):
    allocation, trace = highest_averages(three_way, 10, DHONDT)
    assert allocation.seats == (6, 2, 2)
    winners = [step.winner for step in trace.steps]
    assert winners == ["A", "A", "B", "C", "A", "A", "B", "C", "A", "A"]
    # the winning bid at each step, i.e. the votes-per-seat price paid
    paid = [
        step.next_quota[trace.party_ids.index(step.winner)] for step in trace.steps
    ]
    assert paid == [
        Fraction(53),
        Fraction(53, 2),
        Fraction(24),
        Fraction(23),
        Fraction(53, 3),
        Fraction(53, 4),
        Fraction(12),
        Fraction(23, 2),
        Fraction(53, 5),
        Fraction(53, 6),
    ]
    assert sorted(paid, reverse=True) == paid  # prices only ever fall


def test_trace_present_and_next_quotas(three_way):
    _, trace = highest_averages(three_way, 3, DHONDT)
    step = trace.steps[1]  # before seat 2: A holds one seat
    assert step.seats_before == (1, 0, 0)
    assert step.present_quota == (Fraction(53), None, None)
    assert step.next_quota == (Fraction(53, 2), Fraction(24), Fraction(23))


def test_small_house_allocations(three_way):
    dhondt, _ = highest_averages(three_way, 3, DHONDT)
    sainte_lague, _ = highest_averages(three_way, 3, SAINTE_LAGUE)
    assert dhondt.seats == (2, 1, 0)
    assert sainte_lague.seats == (1, 1, 1)


def test_divisor_methods_split_close_race(close_race):
    dhondt, _ = highest_averages(close_race, 10, DHONDT, with_trace=False)
    sainte_lague, _ = highest_averages(close_race, 10, SAINTE_LAGUE, with_trace=False)
    assert dhondt.seats == (0, 0, 5, 5)
    assert sainte_lague.seats == (1, 1, 4, 4)


def test_dominant_party_can_exceed_upper_quota():
    tally = VoteTally(("A", "B", "C"), (88, 6, 6))
    allocation, _ = highest_averages(tally, 10, DHONDT, with_trace=False)
    assert allocation.seats == (10, 0, 0)
    ok, violations = check_quota_property(tally, 10, allocation)
    assert not ok
    (violation,) = violations
    assert (violation.party, violation.seats, violation.upper) == ("A", 10, 9)


def test_equal_bids_recorded_and_resolved_in_order():
    tally = VoteTally(("A", "B"), (10, 10))
    allocation, trace = highest_averages(tally, 4, DHONDT)
    assert allocation.seats == (2, 2)
    assert [step.winner for step in trace.steps] == ["A", "B", "A", "B"]
    assert [event.context for event in allocation.tie_events] == ["seat 1", "seat 3"]


def test_random_tie_policy_flips_order():
    tally = VoteTally(("A", "B"), (10, 10))
    allocation, _ = highest_averages(tally, 1, DHONDT, TiePolicy("random", 1))
    assert allocation.seats == (0, 1)


def test_zero_house(worked_example):
    allocation, trace = highest_averages(worked_example, 0, DHONDT)
    assert allocation.seats == (0, 0, 0)
    assert trace.steps == ()


def test_zero_vote_party_never_wins():
    allocation, _ = highest_averages(
        VoteTally(("A", "B", "C"), (5, 0, 7)), 6, SAINTE_LAGUE, with_trace=False
    )
    assert allocation.seats[1] == 0
    assert sum(allocation.seats) == 6


@pytest.mark.parametrize("method", ["imperiali", []], ids=["imperiali", "unhashable"])
def test_unknown_method_rejected(worked_example, method):
    with pytest.raises(InputError):
        highest_averages(worked_example, 3, method)


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
def test_trace_is_capped_before_any_row(worked_example, method, monkeypatch):
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
    assert len(highest_averages(worked_example, 5, method)[1].steps) == 5

    def no_row(**fields):
        raise AssertionError("a table row was built")

    monkeypatch.setattr(methods, "DivisorStep", no_row)
    for house_size in (6, 10**12):  # the house is checked before the first seat
        with pytest.raises(IterationGuardError) as caught:
            highest_averages(worked_example, house_size, method)
        assert str(caught.value) == (
            f"the run would build at least {house_size} divisor table rows (limit 5)"
        )
    untraced, trace = highest_averages(worked_example, 6, method, with_trace=False)
    assert (sum(untraced.seats), trace.steps) == (6, ())


# A party holding n seats bids v / (n + 1) under d'Hondt and v / (2n + 1)
# under Sainte-Laguë: the divisor q*n + p, stored here as (p, q).
_DIVISORS = {DHONDT: (1, 1), SAINTE_LAGUE: (1, 2)}


@settings(max_examples=400)
@given(
    st.one_of(
        st.lists(st.integers(0, 6), min_size=1, max_size=8),  # ties are common
        st.lists(st.integers(0, 500), min_size=1, max_size=8),
    ).filter(any),
    st.integers(0, 60),
    st.sampled_from(sorted(_DIVISORS)),
    st.one_of(
        st.just(TiePolicy()),
        st.integers(0, 2**64 - 1).map(lambda seed: TiePolicy("random", seed)),
    ),
)
def test_every_traced_row_follows_from_the_winners(votes, house_size, method, tie):
    tally = VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))
    allocation, trace = highest_averages(tally, house_size, method, tie)
    p, q = _DIVISORS[method]
    won = [0] * len(votes)
    assert len(trace.steps) == house_size
    for number, step in enumerate(trace.steps, 1):
        assert step.step == number
        assert step.seats_before == tuple(won)
        assert step.present_quota == tuple(
            Fraction(v, q * (n - 1) + p) if n else None for v, n in zip(votes, won)
        )
        assert step.next_quota == tuple(
            Fraction(v, q * n + p) for v, n in zip(votes, won)
        )
        won[tally.party_ids.index(step.winner)] += 1
    assert trace.final_seats == allocation.seats == tuple(won)
    untraced, _ = highest_averages(tally, house_size, method, tie, with_trace=False)
    assert untraced == allocation  # tie events included


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
def test_traced_rows_share_the_quotas_that_did_not_move(method):
    k, house_size = 20, 2_000
    tally = VoteTally(
        tuple(f"P{i}" for i in range(k)), tuple(1_000 + 37 * i for i in range(k))
    )
    _, trace = highest_averages(tally, house_size, method)
    quotas = {
        id(value)
        for step in trace.steps
        for row in (step.present_quota, step.next_quota)
        for value in row
        if value is not None
    }
    # one quota per party to start, then one new one per seat; rows built
    # afresh would hold about 2 * k * house_size
    assert len(quotas) <= house_size + k
