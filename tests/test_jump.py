"""Jump-and-step: the per-seat forms' allocation without a loop over the seats."""

import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    HARE,
    METHODS,
    SAINTE_LAGUE,
    InputError,
    InstanceSpace,
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


def _per_seat(tally, house_size, method, tie=TiePolicy(), traced=True):
    if method == HARE:
        return sequential_hare(tally, house_size, tie, with_trace=traced)[0]
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


def _names(allocation):
    """The names an allocation's tie events list, tied or winning."""
    return sum(len(event.tied) + len(event.winners) for event in allocation.tie_events)


@pytest.mark.parametrize("method", METHODS)
def test_tie_names_up_to_the_cell_limit(method, monkeypatch):
    # 30 equal parties tie at both of their levels: 58 events, 986 names
    tally = _tally((7,) * 30)
    jumped = jump_allocation(tally, 60, method)
    count, names = len(jumped.tie_events), _names(jumped)
    assert (count, names) == (58, 986)
    # a traced award log's 60 cells are charged apart from the names
    runs = [jump_allocation, _per_seat, lambda *args: _per_seat(*args, traced=False)]
    monkeypatch.setattr(methods, "MAX_TRACE_CELLS", names)
    assert all(run(tally, 60, method) == jumped for run in runs)
    monkeypatch.setattr(methods, "MAX_TRACE_CELLS", names - 1)
    message = rf"at least {names} cells in {count} tie events \(limit {names - 1} cells\)$"
    for run in runs:
        with pytest.raises(IterationGuardError, match=message):
            run(tally, 60, method)


# 1,000 equal parties at N = 2,000: 1,998 events, which list 1,002,996 names
_CROWD = _tally((7,) * 1_000)


@pytest.mark.parametrize("run", [
    lambda: jump_allocation(_CROWD, 2_000, DHONDT),
    lambda: jump_allocation(_CROWD, 2_000, SAINTE_LAGUE),
    lambda: jump_allocation(_CROWD, 2_000, HARE),
    lambda: sequential_hare(_CROWD, 2_000),
], ids=["jump-dhondt", "jump-sainte-lague", "jump-hare", "sequential-hare-traced"])
def test_many_equal_parties_go_over_the_cell_limit(run):
    with pytest.raises(IterationGuardError, match=r"cells in \d+ tie events \(limit 1000000"):
        run()


# (7, 7) tie at every other seat: 100,000 events at N = 2 * 10**5
_PAIR = _tally((7, 7))


@pytest.mark.parametrize("run", [
    lambda: highest_averages(_PAIR, 200_000, DHONDT, with_trace=False),
    lambda: highest_averages(_PAIR, 200_000, SAINTE_LAGUE, with_trace=False),
    lambda: sequential_hare(_PAIR, 200_000, with_trace=False),
    lambda: jump_allocation(_PAIR, 200_000, DHONDT),
    lambda: jump_allocation(_PAIR, 200_000, SAINTE_LAGUE),
    lambda: jump_allocation(_PAIR, 200_000, HARE),
], ids=["dhondt-untraced", "sainte-lague-untraced", "sequential-hare-untraced",
        "jump-dhondt", "jump-sainte-lague", "jump-hare"])
def test_two_equal_parties_go_over_the_row_limit(run):
    with pytest.raises(IterationGuardError, match=r" tie events \(limit 50000\)$"):
        run()


def test_hare_level_groups_cost_the_events_not_the_levels_times_k():
    # two equal large parties tie at each of their 49,451 levels among 1,998
    # small ones: a sum over all k ideals at each level took about 30 s
    tally = _tally((10**6, 10**6) + (1,) * 1_998)
    start = time.perf_counter()
    allocation = jump_allocation(tally, 99_000, HARE)
    assert time.perf_counter() - start < 5.0
    assert len(allocation.tie_events) == 49_549
    assert allocation.seats[:2] == (49_451, 49_451)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any),
    st.integers(0, 60),
    st.sampled_from(METHODS),
    _TIES,
    st.integers(0, 2),
    st.sampled_from(["MAX_TRACE_CELLS", "MAX_TRACE_ROWS"]),
)
def test_the_jump_refuses_tie_names_where_the_per_seat_loop_does(
    votes, house_size, method, tie, under, guard
):
    # the names the tie events list against the cell limit, or the events
    # themselves against the row limit
    tally = _tally(votes)
    allocation = _per_seat(tally, house_size, method, tie, traced=False)
    count = _names(allocation) if guard == "MAX_TRACE_CELLS" else len(allocation.tie_events)
    limit = max(0, count - under)

    def outcome(run, **kwargs):
        try:
            return run(tally, house_size, method, tie, **kwargs)
        except IterationGuardError:
            return None

    with mock.patch.object(methods, guard, limit):
        jumped, per_seat = outcome(jump_allocation), outcome(_per_seat, traced=False)
    assert jumped == per_seat
    assert (jumped is None) == (count > limit)


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


def test_the_tie_rich_space():
    # votes of at most 20 tie often: every per-seat tie event must come back
    space = InstanceSpace(
        parties=(2, 8), votes=(0, 20), house=(1, 200), trials=2000, master_seed=0
    )
    events = 0
    for index in range(500):
        trial = space.trial_instance(index)
        tally, n, tie = trial.tally, trial.house_size, trial.tie
        jumped = {method: jump_allocation(tally, n, method, tie) for method in METHODS}
        assert jumped[HARE] == sequential_hare(tally, n, tie, with_trace=False)[0]
        for method in (DHONDT, SAINTE_LAGUE):
            assert jumped[method] == highest_averages(
                tally, n, method, tie, with_trace=False
            )[0]
        events += sum(len(allocation.tie_events) for allocation in jumped.values())
    assert events == 24_172


def _pair_loop_groups(tally, seats, t):
    """``methods._divisor_groups`` with every pair visited in Python."""
    p, q = t.numerator, t.denominator
    votes = tally.votes
    k = len(votes)
    tops = [q * (n - 1) + p for n in seats]
    groups = {}
    found = 0
    for i, j in itertools.combinations(range(k), 2):
        if not (seats[i] and seats[j]):
            continue
        g = math.gcd(votes[i], votes[j])
        a, b = votes[i] // g, votes[j] // g
        if q == 2 and not a & b & 1:
            continue
        ms = range(1, min(tops[i] // a, tops[j] // b) + 1, q)
        found += len(ms)
        methods._check_rows(max(len(ms), 2 * found // k), "tie events")
        for m in ms:
            d = math.gcd(m, g)
            groups.setdefault((m // d, g // d), set()).update((i, j))
    methods._check_rows(sum(len(members) - 1 for members in groups.values()), "tie events")
    return [
        (sum(max(0, -((p * g - m * v) // (q * g))) for v in votes if v), members)
        for (m, g), members in groups.items()
    ]


def _groups_or_message(groups, tally, seats, t):
    try:
        return groups(tally, seats, t)
    except IterationGuardError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 6), min_size=1, max_size=10),
        st.lists(st.integers(0, 500), min_size=1, max_size=10),
        # a large common factor: coincidences far apart in the votes
        st.tuples(st.lists(st.integers(0, 12), min_size=1, max_size=10),
                  st.integers(1, 10**15)).map(lambda vf: [v * vf[1] for v in vf[0]]),
    ).filter(any),
    st.lists(st.integers(0, 40), min_size=10, max_size=10),
    st.sampled_from([Fraction(1), Fraction(1, 2)]),
    st.one_of(st.just(methods.MAX_TRACE_ROWS), st.integers(0, 12)),
)
def test_the_pair_scan_finds_the_pair_loops_groups(votes, seats, t, limit):
    # zero-vote parties hold no seat; a party with votes may hold none
    seats = [n if v else 0 for v, n in zip(votes, seats)]
    tally = _tally(votes)
    with mock.patch.object(methods, "MAX_TRACE_ROWS", limit):
        expected = _groups_or_message(_pair_loop_groups, tally, seats, t)
        assert _groups_or_message(methods._divisor_groups, tally, seats, t) == expected


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
def test_a_house_past_the_index_range_trips_the_tie_event_guard(method):
    # 5 : 3 thresholds coincide 1.25e29 times in 1e30 seats, more than a
    # range's len() can count
    message = r"^the run would build at least 125000000000000000000000000000 tie events"
    with pytest.raises(IterationGuardError, match=message):
        jump_allocation(_tally((5, 3, 0)), 10**30, method)
