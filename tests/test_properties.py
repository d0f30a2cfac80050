"""Property-based checks over randomly generated instances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    STOP_CAP,
    STOP_RESIDUAL,
    SeedDistribution,
    TiePolicy,
    VoteTally,
    compute_quotas,
    enumerate_allocations,
    hare_niemeyer,
    highest_averages,
    multiplicative,
    seats_at_multiplier,
    seeded_divisor,
    seeded_sequential_hare,
    sequential_hare,
)
from apportion.methods import _topups_at

DIVISOR_METHODS = (DHONDT, SAINTE_LAGUE)
ROUNDING_OF = {DHONDT: "floor", SAINTE_LAGUE: "nearest"}


@st.composite
def tallies(draw, min_parties=1, max_parties=6, max_votes=10**6):
    k = draw(st.integers(min_parties, max_parties))
    votes = draw(
        st.lists(st.integers(0, max_votes), min_size=k, max_size=k).filter(any)
    )
    return VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))


@st.composite
def seeded_cases(draw):
    tally = draw(tallies(max_parties=5, max_votes=500))
    districts = tuple(
        draw(st.integers(0, 8)) if v > 0 else 0 for v in tally.votes
    )
    return tally, SeedDistribution(tally.party_ids, districts)


houses = st.integers(0, 60)
tie_seeds = st.integers(0, 2**64 - 1)


@given(tallies(), houses)
def test_quota_report_is_internally_consistent(tally, house_size):
    report = compute_quotas(tally, house_size)
    assert sum(report.ideals) == house_size
    for ideal, lower, upper, rem in zip(
        report.ideals, report.lowers, report.uppers, report.remainders
    ):
        assert lower <= ideal <= upper <= lower + 1
        assert rem == ideal - lower
        assert 0 <= rem < 1


@given(tallies(), houses)
def test_hare_is_complete_and_within_quota(tally, house_size):
    allocation = hare_niemeyer(tally, house_size)
    report = compute_quotas(tally, house_size)
    assert sum(allocation.seats) == house_size
    for n, lower, upper in zip(allocation.seats, report.lowers, report.uppers):
        assert lower <= n <= upper


@pytest.mark.parametrize("method", DIVISOR_METHODS)
@given(tallies(), houses)
def test_divisor_methods_are_complete(method, tally, house_size):
    allocation, _ = highest_averages(tally, house_size, method, with_trace=False)
    assert sum(allocation.seats) == house_size
    assert all(n >= 0 for n in allocation.seats)


@given(tallies(max_votes=10**4), houses, st.integers(1, 1000))
def test_scaling_votes_changes_nothing(tally, house_size, factor):
    scaled = VoteTally(tally.party_ids, tuple(v * factor for v in tally.votes))
    assert hare_niemeyer(scaled, house_size).seats == hare_niemeyer(
        tally, house_size
    ).seats
    for method in DIVISOR_METHODS:
        a, _ = highest_averages(tally, house_size, method, with_trace=False)
        b, _ = highest_averages(scaled, house_size, method, with_trace=False)
        assert a.seats == b.seats


@pytest.mark.parametrize("method", DIVISOR_METHODS)
@given(tallies(), st.integers(0, 40))
def test_divisor_methods_are_house_monotone(method, tally, house_size):
    smaller, _ = highest_averages(tally, house_size, method, with_trace=False)
    larger, _ = highest_averages(tally, house_size + 1, method, with_trace=False)
    assert all(b >= a for a, b in zip(smaller.seats, larger.seats))


@pytest.mark.parametrize("method", DIVISOR_METHODS)
@given(tallies(), houses, st.data())
def test_more_votes_never_cost_the_gaining_party(method, tally, house_size, data):
    index = data.draw(st.integers(0, tally.party_count - 1))
    delta = data.draw(st.integers(1, 10**6))
    votes = list(tally.votes)
    votes[index] += delta
    raised = VoteTally(tally.party_ids, tuple(votes))
    before, _ = highest_averages(tally, house_size, method, with_trace=False)
    after, _ = highest_averages(raised, house_size, method, with_trace=False)
    assert after.seats[index] >= before.seats[index]


@given(tallies(), houses, tie_seeds)
def test_random_tie_policy_is_replayable(tally, house_size, seed):
    tie = TiePolicy("random", seed)
    assert hare_niemeyer(tally, house_size, tie) == hare_niemeyer(
        tally, house_size, tie
    )
    for method in DIVISOR_METHODS:
        a, _ = highest_averages(tally, house_size, method, tie, with_trace=False)
        b, _ = highest_averages(tally, house_size, method, tie, with_trace=False)
        assert a == b


@given(tallies(), houses, tie_seeds)
def test_sequential_hare_matches_largest_remainder(tally, house_size, seed):
    tie = TiePolicy("random", seed)
    classical = hare_niemeyer(tally, house_size, tie)
    stepwise, awards = sequential_hare(tally, house_size, tie)
    assert stepwise.seats == classical.seats
    assert len(awards) == house_size


@pytest.mark.parametrize("method", DIVISOR_METHODS)
@given(tallies(), houses, tie_seeds)
def test_multiplicative_form_matches_the_divisor_table(
    method, tally, house_size, seed
):
    tie = TiePolicy("random", seed)
    table, _ = highest_averages(tally, house_size, method, tie, with_trace=False)
    scaled, trace = multiplicative(
        tally, house_size, ROUNDING_OF[method], tie=tie, with_trace=False
    )
    assert scaled.seats == table.seats
    probe = seats_at_multiplier(tally, trace.witness, ROUNDING_OF[method])
    if trace.witness_is_exact:
        assert probe == scaled.seats
    else:
        assert sum(probe) > house_size  # the tie the policy had to break


@given(tallies(min_parties=2), houses)
def test_zero_vote_parties_never_take_a_seat(tally, house_size):
    padded = VoteTally(tally.party_ids + ("Z",), tally.votes + (0,))
    assert hare_niemeyer(padded, house_size).seats[-1] == 0
    for method in DIVISOR_METHODS:
        allocation, _ = highest_averages(padded, house_size, method, with_trace=False)
        assert allocation.seats[-1] == 0


@settings(max_examples=60)
@given(tallies(max_parties=4, max_votes=100), st.integers(0, 8))
def test_hare_minimizes_total_deviation(tally, house_size):
    report = compute_quotas(tally, house_size)
    cost = sum(abs(r) for r in report.residuals_for(hare_niemeyer(tally, house_size)))
    best = min(
        sum(abs(ideal - n) for ideal, n in zip(report.ideals, vector))
        for vector in enumerate_allocations(tally.party_count, house_size)
    )
    assert cost == best


@settings(deadline=None)
@given(seeded_cases())
def test_sequential_seeded_run_invariants(case):
    tally, seed = case
    run = seeded_sequential_hare(tally, seed)
    assert run.stop_reason == STOP_RESIDUAL
    assert all(abs(r) < 1 for r in run.residuals)
    assert run.totals == tuple(
        d + x for d, x in zip(run.district_seats, run.extra_seats)
    )
    assert len(run.awards) == run.stop_iteration
    assert run.house_size == seed.total + run.stop_iteration
    for award in run.awards:
        assert award.deficit > 0


@settings(deadline=None)
@given(seeded_cases(), st.integers(0, 5))
def test_sequential_cap_is_respected(case, cap):
    tally, seed = case
    capped = SeedDistribution(seed.party_ids, seed.district_seats, cap=cap)
    run = seeded_sequential_hare(tally, capped)
    assert run.stop_iteration <= cap
    if run.stop_reason == STOP_CAP:
        assert run.stop_iteration == cap
        assert not all(abs(r) < 1 for r in run.residuals)
    else:
        assert run.stop_reason == STOP_RESIDUAL
        assert all(abs(r) < 1 for r in run.residuals)


@pytest.mark.parametrize("rounding,t", [("floor", Fraction(1)), ("nearest", Fraction(1, 2))])
@settings(deadline=None)
@given(seeded_cases())
def test_divisor_seeded_run_is_self_consistent(rounding, t, case):
    tally, seed = case
    run = seeded_divisor(tally, seed, rounding, with_trace=False)
    assert all(abs(r) < 1 for r in run.residuals)
    assert run.extra_seats == tuple(_topups_at(tally, seed, t, run.multiplier))
    lo, hi = run.multiplier_interval
    assert lo <= run.multiplier < hi
    probe = (lo + hi) / 2
    assert run.extra_seats == tuple(_topups_at(tally, seed, t, probe))
