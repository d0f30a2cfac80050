"""Jump-and-step: the per-seat forms' allocation without a loop over the seats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    HARE,
    METHODS,
    SAINTE_LAGUE,
    InputError,
    IterationGuardError,
    TiePolicy,
    VoteTally,
    highest_averages,
    jump_allocation,
    multiplicative,
    sequential_hare,
)
from apportion import methods


def _tally(votes):
    return VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))


def _per_seat(tally, house_size, method, tie=TiePolicy()):
    if method == HARE:
        return sequential_hare(tally, house_size, tie)[0]
    return highest_averages(tally, house_size, method, tie, with_trace=False)[0]


_TIES = st.one_of(
    st.just(TiePolicy()),
    st.integers(0, 2**64 - 1).map(lambda seed: TiePolicy("random", seed)),
)


@settings(max_examples=600)
@given(
    st.one_of(
        st.lists(st.integers(0, 6), min_size=1, max_size=8),  # ties are common
        st.lists(st.integers(0, 500), min_size=1, max_size=8),
    ).filter(any),
    st.integers(0, 80),
    st.sampled_from(METHODS),
    _TIES,
)
def test_jump_is_the_per_seat_allocation(votes, house_size, method, tie):
    tally = _tally(votes)
    assert jump_allocation(tally, house_size, method, tie) == _per_seat(
        tally, house_size, method, tie
    )


def test_equal_votes_tie_at_every_other_seat():
    allocation = jump_allocation(_tally((10, 10)), 4, DHONDT)
    assert allocation.seats == (2, 2)
    assert [e.context for e in allocation.tie_events] == ["seat 1", "seat 3"]
    assert [e.tied for e in allocation.tie_events] == [("P0", "P1")] * 2
    assert allocation == _per_seat(_tally((10, 10)), 4, DHONDT)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("tie", [TiePolicy(), TiePolicy("random", 7)])
def test_tie_dense_house(method, tie):
    # the house is far above the total vote: every level is a three-way tie
    tally = _tally((7, 7, 7))
    jumped = jump_allocation(tally, 3000, method, tie)
    assert jumped == _per_seat(tally, 3000, method, tie)
    assert len(jumped.tie_events) == 2000


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("tie", [TiePolicy(), TiePolicy("random", 7)])
@pytest.mark.parametrize(
    "votes,house_size",
    [
        ((10, 10, 10), 4),  # three coincident thresholds straddle N
        ((10, 10, 10), 5),
        ((7, 7, 7), 3001),
        ((3, 3, 3, 1), 5),  # Hare: four equal remainders, two leftover seats
    ],
)
def test_a_tie_straddling_the_last_seat(method, tie, votes, house_size):
    tally = _tally(votes)
    jumped = jump_allocation(tally, house_size, method, tie)
    assert jumped == _per_seat(tally, house_size, method, tie)
    assert jumped.tie_events[-1].context.endswith(f" {house_size}")


@pytest.mark.parametrize("tie", [TiePolicy(), TiePolicy("random", 7)])
@pytest.mark.parametrize(
    "votes,house_size,method",
    [
        # one bid taken: the straddle group is appended to the seats' groups
        ((0, 1, 1), 1, DHONDT),
        ((0, 1, 1), 1, SAINTE_LAGUE),
        # two taken: the seats' group at that value gains the party left out
        ((1, 1, 1), 2, DHONDT),
        ((1, 1, 1), 2, SAINTE_LAGUE),  # the sweep lowers all three first
        ((1, 1, 1), 1, SAINTE_LAGUE),  # the sweep raises
    ],
)
def test_the_straddle_group_completes_the_seats_groups(votes, house_size, method, tie):
    tally = _tally(votes)
    jumped = jump_allocation(tally, house_size, method, tie)
    assert jumped == highest_averages(tally, house_size, method, tie, with_trace=False)[0]
    rounding = "floor" if method == DHONDT else "nearest"
    assert jumped.seats == multiplicative(tally, house_size, rounding, tie=tie)[0].seats
    assert len(jumped.tie_events) == house_size


@pytest.mark.parametrize("method", METHODS)
def test_tie_events_up_to_the_limit(method, monkeypatch):
    # 600:300:100 ties 0.4 times a seat under d'Hondt and Hare
    tally = _tally((600, 300, 100))
    jumped = jump_allocation(tally, 10_000, method)
    assert jumped == _per_seat(tally, 10_000, method)
    count = len(jumped.tie_events)
    assert count == (1000 if method == "sainte-lague" else 4000)
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", count)
    assert jump_allocation(tally, 10_000, method) == jumped
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", count - 1)
    # a lower bound that passes the limit count - 1 is the count itself
    message = rf"at least {count} tie events \(limit {count - 1}\)$"
    with pytest.raises(IterationGuardError, match=message):
        jump_allocation(tally, 10_000, method)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "votes,house_size",
    [
        ((10, 10, 10), 2),  # both events come from the group straddling N
        ((10, 10, 10), 4),
        ((7, 7, 7), 3001),
        ((3, 3, 3, 1), 5),
    ],
)
def test_stepped_ties_count_against_the_limit(method, votes, house_size, monkeypatch):
    tally = _tally(votes)
    count = len(_per_seat(tally, house_size, method).tie_events)
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", count)
    assert len(jump_allocation(tally, house_size, method).tie_events) == count
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", count - 1)
    # a lower bound that passes the limit count - 1 is the count itself
    message = rf"at least {count} tie events \(limit {count - 1}\)$"
    with pytest.raises(IterationGuardError, match=message):
        jump_allocation(tally, house_size, method)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "votes,house_size",
    [
        ((0, 5, 0, 5), 7),  # zero-vote parties never gain a seat
        ((3, 0, 4), 0),  # the empty house
        ((1, 2, 3, 4, 5), 2),  # fewer seats than parties
        ((0, 1, 0, 2, 0, 3), 1),
        ((1000, 1000, 2000, 3), 10_000),  # equal and proportional votes
        ((123_457, 98_765, 55_555, 31_416, 27_183, 1_000), 20_000),
    ],
)
def test_explicit_cases(method, votes, house_size):
    tally = _tally(votes)
    for tie in (TiePolicy(), TiePolicy("random", 3)):
        assert jump_allocation(tally, house_size, method, tie) == _per_seat(
            tally, house_size, method, tie
        )


@pytest.mark.parametrize(
    "method,house_size", [("imperiali", 3), (DHONDT, -1), ([], 3)]
)
def test_rejects_bad_arguments(worked_example, method, house_size):
    with pytest.raises(InputError):
        jump_allocation(worked_example, house_size, method)
