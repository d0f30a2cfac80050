"""Multiplier-form allocation: scale shares, round, adjust until the house fits."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    InputError,
    TiePolicy,
    VoteTally,
    highest_averages,
    jump_allocation,
    multiplicative,
    seats_at_multiplier,
)


def test_floor_rounding_worked_example(worked_example):
    allocation, trace = multiplicative(worked_example, 10, "floor")
    assert allocation.seats == (6, 3, 1)
    assert allocation.method == DHONDT
    assert allocation.form == "multiplicative"
    assert trace.witness == Fraction(10)
    assert trace.witness_is_exact
    assert trace.implied_quota == Fraction(100)


def test_floor_witness_fills_house_exactly(three_way):
    allocation, trace = multiplicative(three_way, 10, "floor")
    assert allocation.seats == (6, 2, 2)
    assert trace.witness == Fraction(600, 53)
    assert trace.implied_quota == Fraction(53, 6)
    assert sum(seats_at_multiplier(three_way, trace.witness, "floor")) == 10


def test_any_multiplier_in_the_accepting_interval_is_valid(three_way):
    # a different representative of the same interval reaches the same seats
    assert seats_at_multiplier(three_way, Fraction(57, 5), "floor") == (6, 2, 2)
    assert seats_at_multiplier(three_way, Fraction(14, 5), "nearest") == (1, 1, 1)


def test_nearest_rounding_small_house(three_way):
    allocation, trace = multiplicative(three_way, 3, "nearest")
    assert allocation.seats == (1, 1, 1)
    assert allocation.method == SAINTE_LAGUE
    assert trace.witness == Fraction(50, 23)
    assert trace.implied_quota == Fraction(23)


@pytest.mark.parametrize(
    "rounding,method", [("floor", DHONDT), ("nearest", SAINTE_LAGUE)]
)
def test_implied_quota_equals_last_winning_divisor_bid(three_way, rounding, method):
    for house_size in (1, 2, 3, 7, 10, 19):
        _, mult_trace = multiplicative(three_way, house_size, rounding)
        _, div_trace = highest_averages(three_way, house_size, method)
        last = div_trace.steps[-1]
        winner = div_trace.party_ids.index(last.winner)
        assert mult_trace.implied_quota == last.next_quota[winner]


# (rounding, round_threshold, divisor-table method with the same seats)
RULES = [
    ("floor", None, DHONDT),
    ("nearest", None, SAINTE_LAGUE),
    ("nearest", Fraction(1, 3), None),
    ("nearest", Fraction(3, 4), None),
    ("nearest", 1, DHONDT),
]


def test_engines_agree_everywhere():
    rng = random.Random(2024)
    for trial in range(300):
        k = rng.randint(1, 6)
        max_votes = 500 if trial % 2 else 6  # small votes tie often
        votes = [rng.randint(0, max_votes) for _ in range(k)]
        if not any(votes):
            votes[0] = 1
        tally = VoteTally(tuple(f"P{i}" for i in range(k)), tuple(votes))
        house_size = rng.randint(0, 40)
        tie = TiePolicy("random", rng.getrandbits(64))
        for rounding, threshold, method in RULES:
            sweep, trace = multiplicative(
                tally, house_size, rounding, round_threshold=threshold, tie=tie,
            )
            # the witness rounds to the seats; a straddling tie over-fills it
            at_witness = seats_at_multiplier(
                tally, trace.witness, rounding, round_threshold=threshold
            )
            if trace.witness_is_exact:
                assert at_witness == sweep.seats
                assert sweep.tie_events == ()
            else:
                assert sum(at_witness) > house_size
                assert all(a >= s for a, s in zip(at_witness, sweep.seats))
                (event,) = sweep.tie_events
                assert set(event.winners) < set(event.tied)
            if house_size:
                # the witness is the N-th smallest threshold: distinct
                # thresholds here lie more than 10**-9 apart
                below = trace.witness - Fraction(1, 10**9)
                assert sum(seats_at_multiplier(
                    tally, below, rounding, round_threshold=threshold
                )) < house_size
            if method is not None:
                table, _ = highest_averages(
                    tally, house_size, method, tie, with_trace=False
                )
                assert sweep.seats == table.seats
                # the jump is a third side: the table's result, tie events too
                assert jump_allocation(tally, house_size, method, tie) == table


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=6).filter(any),
    st.integers(0, 30),
    st.sampled_from(RULES),
    st.integers(0, 2**64 - 1),
)
def test_sweep_rows_are_the_rounded_counts(votes, house_size, rule, rng_seed):
    rounding, threshold, _ = rule
    tally = VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))
    _, trace = multiplicative(
        tally, house_size, rounding, round_threshold=threshold,
        tie=TiePolicy("random", rng_seed),
    )
    for step in trace.steps:
        if step.action == "deassign":
            continue
        assert step.seats == seats_at_multiplier(
            tally, step.multiplier, rounding, round_threshold=threshold
        )
        assert sum(step.seats) == step.total


def test_sweep_lowers_into_a_straddling_tie():
    tally = VoteTally(("A", "B", "C"), (1, 1, 1))
    _, trace = multiplicative(tally, 2, "nearest")
    assert [(s.action, s.multiplier, s.seats, s.total) for s in trace.steps] == [
        ("start", Fraction(2), (1, 1, 1), 3),
        ("lower", Fraction(0), (0, 0, 0), 0),
        ("deassign", Fraction(3, 2), (1, 1, 0), 2),
    ]


def test_sweep_trace_walks_down_to_the_witness(three_way):
    _, trace = multiplicative(three_way, 3, "nearest")
    actions = [(step.action, step.total) for step in trace.steps]
    assert actions[0] == ("start", 4)  # M = 3 over-fills the house
    assert actions[-1] == ("lower", 3)
    assert trace.steps[0].seats == (2, 1, 1)
    assert trace.witness == Fraction(50, 23)


def test_coincident_thresholds_deassigned_by_policy(worked_example):
    # at M = 10 three thresholds coincide; only two seats remain
    allocation, trace = multiplicative(worked_example, 9, "floor")
    assert allocation.seats == (6, 3, 0)
    assert not trace.witness_is_exact
    assert trace.witness == Fraction(10)
    (event,) = allocation.tie_events
    assert event.tied == ("A", "B", "C")
    assert event.winners == ("A", "B")
    # the witness alone over-fills; the policy stripped the surplus
    assert sum(seats_at_multiplier(worked_example, trace.witness, "floor")) == 10


def test_custom_rounding_threshold(three_way):
    allocation, trace = multiplicative(
        three_way, 3, "nearest", round_threshold=Fraction(3, 4)
    )
    assert allocation.seats == (1, 1, 1)
    assert allocation.method == "nearest-3/4"
    assert trace.implied_quota is None  # no standard votes-per-seat reading
    unity, _ = multiplicative(three_way, 10, "nearest", round_threshold=1)
    floor, _ = multiplicative(three_way, 10, "floor")
    assert unity.seats == floor.seats
    assert unity.method == DHONDT


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rounding": "floor", "round_threshold": Fraction(1, 2)},
        {"rounding": "nearest", "round_threshold": 0},
        {"rounding": "nearest", "round_threshold": 2},
        {"rounding": "banker"},
        # a float is not exact: 0.3 would run at t = 5404319552844595/2**54
        {"rounding": "nearest", "round_threshold": 0.3},
        {"rounding": "nearest", "round_threshold": 0.5},
        {"rounding": "nearest", "round_threshold": True},
        {"rounding": "nearest", "round_threshold": "1/2"},
    ],
)
def test_rounding_validation(three_way, kwargs):
    with pytest.raises(InputError):
        multiplicative(three_way, 3, **kwargs)


def test_zero_house(worked_example):
    allocation, trace = multiplicative(worked_example, 0, "floor")
    assert allocation.seats == (0, 0, 0)
    assert trace.witness == Fraction(0)
    assert trace.implied_quota is None


def test_seats_at_multiplier_rejects_negative(worked_example):
    with pytest.raises(InputError):
        seats_at_multiplier(worked_example, Fraction(-1))


@pytest.mark.parametrize("multiplier", [0.1 + 0.2, 10.0, True, "3"])
def test_seats_at_multiplier_rejects_inexact_multipliers(worked_example, multiplier):
    with pytest.raises(InputError, match="multiplier must be an int or a Fraction"):
        seats_at_multiplier(worked_example, multiplier)


def test_seats_at_multiplier_rejects_an_inexact_threshold(worked_example):
    assert seats_at_multiplier(worked_example, 10, "nearest", round_threshold=1) == (
        6, 3, 1,
    )
    with pytest.raises(InputError, match="round_threshold must be an int or a Fraction"):
        seats_at_multiplier(worked_example, 10, "nearest", round_threshold=1.0)
