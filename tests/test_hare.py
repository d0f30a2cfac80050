"""Largest-remainder allocation and its one-seat-at-a-time restatement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    IterationGuardError,
    TieEvent,
    TiePolicy,
    VoteTally,
    hare_niemeyer,
    sequential_hare,
)
from apportion import methods


def test_integer_quotas_need_no_remainder_seats(worked_example):
    allocation = hare_niemeyer(worked_example, 10)
    assert allocation.seats == (6, 3, 1)
    assert allocation.method == "hare"
    assert allocation.form == "largest-remainder"
    assert allocation.tie_events == ()


def test_largest_remainders_take_leftover_seats(three_way):
    # floors (5,2,2); remainders 0.3, 0.4, 0.3 leave one seat for B
    assert hare_niemeyer(three_way, 10).seats == (5, 3, 2)


def test_small_parties_keep_their_remainder_seats(close_race):
    assert hare_niemeyer(close_race, 10).seats == (1, 1, 4, 4)


def test_house_growth_can_cost_a_seat():
    # the classic non-monotonicity: the two big parties gain, the small loses
    tally = VoteTally(("A", "B", "C"), (6, 6, 2))
    assert hare_niemeyer(tally, 10).seats == (4, 4, 2)
    assert hare_niemeyer(tally, 11).seats == (5, 5, 1)


def test_straddling_remainder_tie_is_recorded():
    tally = VoteTally(("A", "B"), (10, 10))
    allocation = hare_niemeyer(tally, 3)
    assert allocation.seats == (2, 1)  # equal votes: input order decides
    (event,) = allocation.tie_events
    assert event.tied == ("A", "B")
    assert event.winners == ("A",)


def _residual_tie_events(tally, house_size, tie):
    """The residual-seat tie events, stated on their own: every party whose
    remainder equals the last awarded one is tied, and those of them inside
    the first ``leftover`` places of the remainder order win."""
    total = tally.total_votes
    leftover = house_size - sum(house_size * v // total for v in tally.votes)
    if not leftover:
        return ()
    rems = [house_size * v % total for v in tally.votes]
    ranks = tie.ranks(tally)
    order = sorted(range(tally.party_count), key=lambda i: (-rems[i], ranks[i]))
    boundary = rems[order[leftover - 1]]
    group = [i for i in order if rems[i] == boundary]
    chosen = [i for i in order[:leftover] if rems[i] == boundary]
    if len(chosen) == len(group):
        return ()
    ids = tally.party_ids
    return (TieEvent("residual seats", tuple(ids[i] for i in sorted(group)),
                     tuple(ids[i] for i in sorted(chosen))),)


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any),  # ties are common
    st.integers(0, 60),
    st.one_of(
        st.just(TiePolicy()),
        st.integers(0, 2**64 - 1).map(lambda seed: TiePolicy("random", seed)),
    ),
)
def test_residual_tie_event_names_the_straddling_group(votes, house_size, tie):
    tally = VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))
    assert hare_niemeyer(tally, house_size, tie).tie_events == _residual_tie_events(
        tally, house_size, tie
    )
    example = hare_niemeyer(VoteTally(("A", "B", "C"), (1, 1, 1)), 2, tie)
    assert [event.context for event in example.tie_events] == ["residual seats"]


def test_no_event_when_tied_group_fits_entirely():
    # both tied remainders are awarded, so the policy decided nothing
    tally = VoteTally(("A", "B", "C"), (10, 10, 8))
    allocation = hare_niemeyer(tally, 5)
    assert allocation.seats == (2, 2, 1)
    assert allocation.tie_events == ()


def test_random_tie_policy_is_replayable():
    tally = VoteTally(("A", "B"), (10, 10))
    keep = hare_niemeyer(tally, 3, TiePolicy("random", 0))
    flip = hare_niemeyer(tally, 3, TiePolicy("random", 1))
    assert keep.seats == (2, 1)
    assert flip.seats == (1, 2)
    assert hare_niemeyer(tally, 3, TiePolicy("random", 1)) == flip


def test_zero_house(worked_example):
    assert hare_niemeyer(worked_example, 0).seats == (0, 0, 0)


@pytest.mark.parametrize("house_size", [0, 1, 2, 3, 7, 10, 11, 23])
def test_sequential_form_matches_classical(three_way, house_size):
    classical = hare_niemeyer(three_way, house_size)
    sequential, awards = sequential_hare(three_way, house_size)
    assert sequential.seats == classical.seats
    assert sequential.form == "sequential"
    assert len(awards) == house_size


def test_sequential_award_log():
    tally = VoteTally(("A", "B"), (10, 10))
    allocation, awards = sequential_hare(tally, 2)
    assert allocation.seats == (1, 1)
    assert [(a.iteration, a.party, a.deficit) for a in awards] == [
        (1, "A", Fraction(1)),
        (2, "B", Fraction(1)),
    ]
    # only the first award was an actual tie (second had a unique maximum)
    (event,) = allocation.tie_events
    assert event.context == "award 1"
    assert event.tied == ("A", "B")


def test_sequential_deficits_decrease_for_winner(three_way):
    _, awards = sequential_hare(three_way, 10)
    first = awards[0]
    assert first.party == "A"  # biggest ideal count wins the first seat
    assert first.deficit == Fraction(53, 10)


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.integers(0, 6), min_size=1, max_size=8),  # ties are common
        st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
    ).filter(any),
    st.integers(0, 80),
    st.one_of(
        st.just(TiePolicy()),
        st.integers(0, 2**64 - 1).map(lambda seed: TiePolicy("random", seed)),
    ),
)
def test_untraced_sequential_form_skips_only_the_award_log(votes, house_size, tie):
    tally = VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))
    allocation, awards = sequential_hare(tally, house_size, tie, with_trace=False)
    assert awards == ()
    assert allocation == sequential_hare(tally, house_size, tie)[0]


def test_award_log_is_capped_before_any_row(worked_example, monkeypatch):
    monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
    assert len(sequential_hare(worked_example, 5)[1]) == 5

    def no_row(**fields):
        raise AssertionError("an award row was built")

    monkeypatch.setattr("apportion.types.SeatAward", no_row)  # where the log builds its rows
    for house_size in (6, 10**12):  # the house is checked before the first seat
        with pytest.raises(IterationGuardError) as caught:
            sequential_hare(worked_example, house_size)
        assert str(caught.value) == (
            f"the run would build at least {house_size} award log rows (limit 5)"
        )
    untraced, awards = sequential_hare(worked_example, 6, with_trace=False)
    assert (untraced.seats, awards) == ((4, 2, 0), ())
