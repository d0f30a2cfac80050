"""Greedy divisor tables for d'Hondt-Jefferson and Sainte-Laguë."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    Allocation,
    InputError,
    InstanceSpace,
    IterationGuardError,
    TieEvent,
    TiePolicy,
    TraceTable,
    VoteTally,
    check_quota_property,
    equivalence_suite,
    highest_averages,
    sequential_hare,
)
from apportion import methods, seeded, types
from apportion.types import DivisorStep


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

    def no_row(*fields, **named):
        raise AssertionError("a table row was built")

    monkeypatch.setattr(types, "DivisorStep", no_row)  # where DivisorSteps builds rows
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


def _cross_multiplication_table(tally, house_size, method, tie, with_trace):
    """The divisor table as it compared bids before integer keys: each seat
    scans every party, cross-multiplying its bid with the best so far."""
    p, q = _DIVISORS[method]
    votes, ids, ranks = tally.votes, tally.party_ids, tie.ranks(tally)
    k = len(votes)
    seats, dens = [0] * k, [p] * k
    presents, nexts = [None] * k, [Fraction(v, p) for v in votes]
    steps, events = [], []
    for step in range(1, house_size + 1):
        best = 0
        best_num, best_den = votes[0], dens[0]
        tied = [0]
        for i in range(1, k):
            num, den = votes[i], dens[i]
            lhs = num * best_den
            rhs = best_num * den
            if lhs > rhs:
                best, best_num, best_den = i, num, den
                tied = [i]
            elif lhs == rhs:
                tied.append(i)
                if ranks[i] < ranks[best]:
                    best, best_num, best_den = i, num, den
        if len(tied) > 1:
            events.append(
                TieEvent(f"seat {step}", tuple(ids[i] for i in tied), (ids[best],))
            )
        if with_trace:
            steps.append(
                DivisorStep(step, tuple(seats), tuple(presents), tuple(nexts), ids[best])
            )
            presents[best] = nexts[best]
            nexts[best] = Fraction(votes[best], dens[best] + q)
        seats[best] += 1
        dens[best] += q
    allocation = Allocation(ids, tuple(seats), house_size, method, "divisor", tuple(events))
    trace = TraceTable("divisor", method, ids, tuple(steps), tuple(seats))
    return allocation, trace


_WIDE = st.integers(0, 10**12)
_TIE_PRONE = st.one_of(
    st.integers(0, 6),  # zeros and equal votes
    st.integers(1, 8).map(lambda m: 125 * m),  # small multiples of one unit
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(_TIE_PRONE, min_size=1, max_size=30),
        st.lists(_WIDE, min_size=1, max_size=30),
        st.lists(st.integers(1, 1_000), min_size=2, max_size=3),  # bids close at large N
        st.tuples(_WIDE, st.integers(1, 30)).map(lambda vk: [vk[0]] * vk[1]),
    ).filter(any),
    st.one_of(st.integers(0, 60), st.integers(0, 3_000), st.integers(1_000, 3_000)),
    st.sampled_from(sorted(_DIVISORS)),
    st.one_of(
        st.just(TiePolicy()),
        st.integers(0, 2**64 - 1).map(lambda seed: TiePolicy("random", seed)),
    ),
)
# two bids 1 / (291 * 348) apart at seat 306: keys scaled by only
# 2**bit_length(N + 1) would tie them
@example(votes=[291, 348], house_size=306, method=DHONDT, tie=TiePolicy())
def test_table_matches_the_cross_multiplication_table(votes, house_size, method, tie):
    tally = VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))
    for with_trace in (True, False):
        got = highest_averages(tally, house_size, method, tie, with_trace=with_trace)
        want = _cross_multiplication_table(tally, house_size, method, tie, with_trace)
        assert got == want  # seats, tie events and every DivisorStep


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([100, 200]).flatmap(lambda k: st.one_of(
        st.lists(_TIE_PRONE, min_size=k, max_size=k),
        st.lists(_WIDE, min_size=k, max_size=k),
        st.tuples(_WIDE, st.integers(1, 4)).map(  # equal votes, or 1..4 times one unit
            lambda vm: [vm[0] * (1 + i % vm[1]) for i in range(k)]),
    )).filter(any),
    st.integers(0, 3_000),
    st.sampled_from(sorted(_DIVISORS)),
    st.one_of(
        st.just(TiePolicy()),
        st.integers(0, 2**64 - 1).map(lambda seed: TiePolicy("random", seed)),
    ),
)
@example(votes=[7] * 200, house_size=3_000, method=SAINTE_LAGUE, tie=TiePolicy("random", 3))
@example(votes=[0, 1, 2, 3, 6] * 20, house_size=2_500, method=DHONDT, tie=TiePolicy())
def test_the_bid_heap_at_large_k_matches_the_cross_multiplication_table(
    votes, house_size, method, tie
):
    tally = VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))
    got = highest_averages(tally, house_size, method, tie, with_trace=False)
    want = _cross_multiplication_table(tally, house_size, method, tie, False)
    assert got == want  # seats and every tie event


def test_an_untraced_per_seat_loop_past_the_seat_limit_is_refused(monkeypatch):
    tally = VoteTally(("A", "B"), (3, 1))
    limit = methods.MAX_LOOP_SEATS
    assert limit == seeded.MAX_TOPUP_ITERATIONS == 10**6
    runs = (lambda n: highest_averages(tally, n, DHONDT, with_trace=False),
            lambda n: highest_averages(tally, n, SAINTE_LAGUE, with_trace=False),
            lambda n: sequential_hare(tally, n, with_trace=False))
    for run in runs:  # refused before the first seat, however far past the limit
        with pytest.raises(IterationGuardError) as refused:
            run(10**12)
        assert str(refused.value) == (
            f"the run would award {10**12} seats one at a time (limit {limit})")
    monkeypatch.setattr(methods, "MAX_LOOP_SEATS", 50)
    for run in runs:
        assert sum(run(50)[0].seats) == 50
        with pytest.raises(IterationGuardError, match=r"award 51 seats one at a time"):
            run(51)
    space = InstanceSpace(parties=(2, 3), votes=(1, 9), house=(10**12, 10**12), trials=2,
                          master_seed=0)
    with pytest.raises(IterationGuardError, match=r"one at a time \(limit 50\)"):
        equivalence_suite(space)
