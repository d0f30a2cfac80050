"""Two-stage (district seats + proportional top-up) allocation."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    InputError,
    IterationGuardError,
    STOP_CAP,
    STOP_FIXED,
    STOP_RESIDUAL,
    SeedDistribution,
    SeededRun,
    TiePolicy,
    VoteTally,
    highest_averages,
    multiplicative,
    seeded_divisor,
    seeded_sequential_hare,
    sequential_hare,
)
from apportion import cli, methods, seeded
from apportion.methods import _round_threshold
from apportion.seeded import _topups_at
from apportion.types import SeatAward


@pytest.fixture
def lopsided():
    # B won a single district despite holding 80% of the vote
    tally = VoteTally(("A", "B"), (20, 80))
    return tally, SeedDistribution(("A", "B"), (3, 1))


class TestSequential:
    def test_single_topup_restores_balance(self):
        tally = VoteTally(("A", "B", "C"), (50, 30, 20))
        seed = SeedDistribution(("A", "B", "C"), (3, 2, 0))
        run = seeded_sequential_hare(tally, seed)
        assert run.totals == (3, 2, 1)
        assert run.extra_seats == (0, 0, 1)
        assert run.stop_iteration == 1
        assert run.stop_reason == STOP_RESIDUAL
        assert run.residuals == (0, Fraction(-1, 5), Fraction(1, 5))
        (award,) = run.awards
        assert (award.iteration, award.house_target) == (1, 6)
        assert award.party == "C"
        assert award.deficit == Fraction(6, 5)
        assert run.house_size == 6

    def test_overhang_diluted_by_growing_the_house(self, lopsided):
        run = seeded_sequential_hare(*lopsided)
        assert run.stop_iteration == 7
        assert run.totals == (3, 8)
        assert all(award.party == "B" for award in run.awards)
        assert run.residuals == (Fraction(-4, 5), Fraction(4, 5))

    def test_already_proportional_stops_at_zero(self):
        tally = VoteTally(("A", "B"), (50, 50))
        run = seeded_sequential_hare(tally, SeedDistribution(("A", "B"), (2, 2)))
        assert run.stop_iteration == 0
        assert run.awards == ()
        assert run.totals == (2, 2)
        assert run.residuals == (0, 0)

    def test_residual_exactly_one_does_not_stop(self):
        # at the seeded house both residuals are exactly 1; strictness forces
        # one more seat
        tally = VoteTally(("A", "B"), (1, 1))
        run = seeded_sequential_hare(tally, SeedDistribution(("A", "B"), (0, 2)))
        assert run.stop_iteration == 1
        assert run.totals == (1, 2)
        (award,) = run.awards
        assert (award.party, award.house_target) == ("A", 3)
        assert award.deficit == Fraction(3, 2)

    def test_cap_halts_an_unfinished_run(self, lopsided):
        tally, _ = lopsided
        capped = SeedDistribution(("A", "B"), (3, 1), cap=3)
        run = seeded_sequential_hare(tally, capped)
        assert run.stop_reason == STOP_CAP
        assert run.stop_iteration == 3
        assert run.totals == (3, 4)
        assert run.residuals == (Fraction(-8, 5), Fraction(8, 5))

    def test_residual_stop_wins_over_a_coinciding_cap(self, lopsided):
        tally, _ = lopsided
        capped = SeedDistribution(("A", "B"), (3, 1), cap=7)
        run = seeded_sequential_hare(tally, capped)
        assert run.stop_reason == STOP_RESIDUAL
        assert run.stop_iteration == 7

    def test_fixed_extra_awards_against_a_fixed_house(self, lopsided):
        tally, _ = lopsided
        fixed = SeedDistribution(("A", "B"), (3, 1), fixed_extra=2)
        run = seeded_sequential_hare(tally, fixed)
        assert run.stop_reason == STOP_FIXED
        assert run.totals == (3, 3)
        assert [a.house_target for a in run.awards] == [6, 6]
        assert run.residuals == (Fraction(-9, 5), Fraction(9, 5))

    def test_fixed_extra_ignores_an_early_balance(self):
        tally = VoteTally(("A", "B"), (50, 50))
        fixed = SeedDistribution(("A", "B"), (2, 2), fixed_extra=2)
        run = seeded_sequential_hare(tally, fixed)
        assert run.totals == (3, 3)
        assert [a.party for a in run.awards] == ["A", "B"]
        (event,) = run.tie_events
        assert event.tied == ("A", "B")
        assert event.winners == ("A",)

    def test_random_tie_seed_flips_the_first_award(self):
        tally = VoteTally(("A", "B"), (50, 50))
        fixed = SeedDistribution(("A", "B"), (2, 2), fixed_extra=1)
        run = seeded_sequential_hare(tally, fixed, TiePolicy("random", 1))
        assert run.awards[0].party == "B"

    def test_iteration_guard(self, lopsided, monkeypatch):
        tally, seed = lopsided
        monkeypatch.setattr(seeded, "MAX_TOPUP_ITERATIONS", 5)
        with pytest.raises(IterationGuardError):
            seeded_sequential_hare(tally, seed)

    def test_guard_fails_fast_when_the_stop_lies_beyond_it(self, monkeypatch):
        # the stop region begins above 290,029: some 290,000 top-ups away
        tally = VoteTally(("A", "B"), (1, 10_000))

        def no_awards(*args):
            raise AssertionError("a seat was awarded")

        monkeypatch.setattr("apportion.seeded._award_deficits", no_awards)
        monkeypatch.setattr(seeded, "MAX_TOPUP_ITERATIONS", 1000)
        seed = SeedDistribution(("A", "B"), (30, 0))
        with pytest.raises(IterationGuardError, match="above multiplier 290029"):
            seeded_sequential_hare(tally, seed)

    def test_fixed_extra_over_the_guard_fails_before_any_award(self, monkeypatch):
        tally = VoteTally(("A", "B"), (50, 50))
        at_guard = SeedDistribution(("A", "B"), (2, 2), fixed_extra=5)
        monkeypatch.setattr(seeded, "MAX_TOPUP_ITERATIONS", 5)
        run = seeded_sequential_hare(tally, at_guard)
        assert run.totals == (5, 4)

        def no_awards(*args):
            raise AssertionError("a seat was awarded")

        monkeypatch.setattr("apportion.seeded._award_deficits", no_awards)
        over = SeedDistribution(("A", "B"), (2, 2), fixed_extra=6)
        with pytest.raises(IterationGuardError, match="6 fixed extra seats"):
            seeded_sequential_hare(tally, over)

    def test_a_cap_inside_the_guard_still_ends_the_run(self, monkeypatch):
        tally = VoteTally(("A", "B"), (1, 10_000))
        capped = SeedDistribution(("A", "B"), (30, 0), cap=500)
        monkeypatch.setattr(seeded, "MAX_TOPUP_ITERATIONS", 1000)
        run = seeded_sequential_hare(tally, capped)
        assert run.stop_reason == STOP_CAP
        assert run.stop_iteration == 500
        assert run.totals == (30, 500)

    def test_many_equal_parties_go_over_the_cell_limit(self):
        # 2,000 top-ups over 1,000 equal parties: 1,998 tie events, which
        # list 1,002,996 names
        ids = tuple(f"P{i}" for i in range(1_000))
        fixed = SeedDistribution(ids, (0,) * 1_000, fixed_extra=2_000)
        for with_trace in (True, False):
            with pytest.raises(IterationGuardError,
                               match=r"cells in \d+ tie events \(limit 1000000 cells\)$"):
                seeded_sequential_hare(VoteTally(ids, (7,) * 1_000), fixed,
                                       with_trace=with_trace)

    def test_tie_names_add_up_across_the_award_runs(self, monkeypatch):
        # the three tie events, of three names each, fall in three award runs
        tally = VoteTally(("A", "B", "C", "D", "E"), (2, 1, 5, 1, 5))
        seed = SeedDistribution(tally.party_ids, (3, 2, 3, 2, 0))
        run = seeded_sequential_hare(tally, seed)
        assert [len(e.tied) + len(e.winners) for e in run.tie_events] == [3, 3, 3]
        monkeypatch.setattr(methods, "MAX_TRACE_CELLS", 9)
        assert seeded_sequential_hare(tally, seed) == run
        monkeypatch.setattr(methods, "MAX_TRACE_CELLS", 8)
        with pytest.raises(IterationGuardError,
                           match=r"^the run would build at least 9 cells in 3 tie events"):
            seeded_sequential_hare(tally, seed)


    def test_tie_events_count_against_the_row_limit(self):
        # two equal parties tie at every other top-up: 50,001 events in 100,001
        tally = VoteTally(("A", "B"), (1, 1))
        fixed = SeedDistribution(tally.party_ids, (0, 0), fixed_extra=100_000)
        assert len(seeded_sequential_hare(tally, fixed, with_trace=False).tie_events) == 50_000
        over = dataclasses.replace(fixed, fixed_extra=100_001)
        for with_trace in (True, False):
            with pytest.raises(IterationGuardError,
                               match=r"^the run would build at least 50001 tie events "
                                     r"\(limit 50000\)$"):
                seeded_sequential_hare(tally, over, with_trace=with_trace)

class TestDivisorResidualStop:
    def test_origin_already_balanced(self):
        tally = VoteTally(("A", "B", "C"), (50, 30, 20))
        seed = SeedDistribution(("A", "B", "C"), (3, 2, 0))
        run = seeded_divisor(tally, seed)
        assert run.totals == (3, 2, 1)
        assert run.multiplier == Fraction(6)  # sweep origin D + 1 qualifies
        assert run.multiplier_interval == (Fraction(6), Fraction(8))
        assert [s.multiplier for s in run.sweep] == [Fraction(6)]
        assert run.stop_reason == STOP_RESIDUAL

    def test_sweep_past_the_dilution_point(self, lopsided):
        run = seeded_divisor(*lopsided)
        assert run.totals == (3, 8)
        assert run.multiplier == Fraction(85, 8)
        assert run.multiplier_interval == (Fraction(10), Fraction(45, 4))
        assert [s.multiplier for s in run.sweep] == [
            Fraction(5),
            Fraction(25, 4),
            Fraction(15, 2),
            Fraction(35, 4),
            Fraction(10),
            Fraction(85, 8),
        ]
        assert [s.total_extra for s in run.sweep] == [3, 4, 5, 6, 7, 7]

    def test_agrees_with_the_sequential_form(self, lopsided):
        divisor = seeded_divisor(*lopsided)
        sequential = seeded_sequential_hare(*lopsided)
        assert divisor.totals == sequential.totals
        assert divisor.stop_iteration == sequential.stop_iteration

    def test_nearest_rounding(self, lopsided):
        run = seeded_divisor(*lopsided, rounding="nearest")
        assert run.totals == (3, 8)
        assert run.multiplier == Fraction(165, 16)
        assert run.multiplier_interval == (Fraction(10), Fraction(85, 8))
        assert run.residuals == (Fraction(-15, 16), Fraction(1, 4))

    def test_reported_multiplier_reproduces_the_seats(self, lopsided):
        tally, seed = lopsided
        run = seeded_divisor(tally, seed)
        assert tuple(_topups_at(tally, seed, Fraction(1), run.multiplier)) == (0, 7)
        lo, hi = run.multiplier_interval
        assert lo < run.multiplier < hi

    def test_trace_guard_and_its_escape_hatch(self):
        tally = VoteTally(("A", "B"), (1, 1_000_000))
        seed = SeedDistribution(("A", "B"), (3, 0))
        with pytest.raises(IterationGuardError):
            seeded_divisor(tally, seed)
        run = seeded_divisor(tally, seed, with_trace=False)
        assert run.totals == (3, 2_000_000)
        assert run.multiplier == Fraction(4_000_005_000_001, 2_000_000)
        assert run.sweep == ()

    def test_trace_guard_message(self):
        # top-up seats from M = D + 1 = 4 (3 for B) to the witness (2,000,000)
        tally = VoteTally(("A", "B"), (1, 1_000_000))
        seed = SeedDistribution(("A", "B"), (3, 0))
        message = "the run would build at least 1999997 sweep rows (limit 50000)"
        with pytest.raises(IterationGuardError) as caught:
            seeded_divisor(tally, seed, "floor")
        assert str(caught.value) == message

    def test_trace_cells_are_capped(self, lopsided, monkeypatch):
        # four top-up seats are taken between M = D + 1 and the witness, each
        # a sweep row of k = 2 cells
        tally, seed = lopsided
        monkeypatch.setattr(methods, "MAX_TRACE_CELLS", 8)
        assert len(seeded_divisor(tally, seed).sweep) == 6
        monkeypatch.setattr(methods, "MAX_TRACE_CELLS", 7)
        with pytest.raises(IterationGuardError) as caught:
            seeded_divisor(tally, seed)
        assert str(caught.value) == (
            "the run would build at least 8 cells in 4 sweep rows (limit 7 cells)"
        )
        assert seeded_divisor(tally, seed, with_trace=False).totals == (3, 8)


_TIES = st.one_of(
    st.just(TiePolicy()),
    st.integers(0, 2**64 - 1).map(lambda s: TiePolicy("random", s)),
)


@st.composite
def fixed_stop_cases(draw):
    """Tie-prone or large votes, district seats and up to 120 top-ups."""
    k = draw(st.integers(1, 6))
    top = draw(st.sampled_from([6, 10**6]))
    votes = draw(st.lists(st.integers(0, top), min_size=k, max_size=k).filter(any))
    districts = tuple(draw(st.integers(0, 30)) if v else 0 for v in votes)
    tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
    fixed_extra = draw(st.integers(0, 120))
    seed = SeedDistribution(tally.party_ids, districts, fixed_extra=fixed_extra)
    return tally, seed, draw(_TIES)


class TestDivisorFixedStop:
    def test_stops_at_the_target_threshold(self, lopsided):
        tally, _ = lopsided
        fixed = SeedDistribution(("A", "B"), (3, 1), fixed_extra=4)
        run = seeded_divisor(tally, fixed, stop="fixed")
        assert run.totals == (3, 5)
        assert run.multiplier == Fraction(25, 4)
        assert run.multiplier_interval == (Fraction(25, 4), Fraction(15, 2))
        assert run.stop_reason == STOP_FIXED

    def test_multiplier_may_fall_below_the_sweep_origin(self, lopsided):
        tally, _ = lopsided
        fixed = SeedDistribution(("A", "B"), (3, 1), fixed_extra=1)
        run = seeded_divisor(tally, fixed, stop="fixed")
        assert run.totals == (3, 2)
        assert run.multiplier == Fraction(5, 2)  # below D + 1 = 5

    def test_coincident_thresholds_resolved_by_policy(self):
        tally = VoteTally(("A", "B"), (10, 10))
        fixed = SeedDistribution(("A", "B"), (0, 0), fixed_extra=1)
        run = seeded_divisor(tally, fixed, stop="fixed")
        assert run.totals == (1, 0)
        assert run.multiplier == Fraction(2)
        assert run.multiplier_interval is None  # no clean bracket at a tie
        (event,) = run.tie_events
        assert event.tied == ("A", "B")
        assert event.winners == ("A",)

    def test_trace_is_capped_before_any_row(self, lopsided, monkeypatch):
        tally, _ = lopsided
        monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
        at_limit = SeedDistribution(("A", "B"), (3, 1), fixed_extra=5)
        assert len(seeded_divisor(tally, at_limit, stop="fixed").sweep) == 5
        over = SeedDistribution(("A", "B"), (3, 1), fixed_extra=6)
        untraced = seeded_divisor(tally, over, stop="fixed", with_trace=False)
        assert untraced.totals == (3, 7)

        def no_fill(*args):
            raise AssertionError("a threshold was taken")

        monkeypatch.setattr(seeded, "_fill", no_fill)
        with pytest.raises(IterationGuardError) as caught:
            seeded_divisor(tally, over, stop="fixed")
        assert str(caught.value) == "the run would build at least 6 sweep rows (limit 5)"

    @settings(max_examples=300)
    @given(fixed_stop_cases(), st.sampled_from(["floor", "nearest"]))
    def test_the_pilot_lands_where_the_walk_does(self, case, rounding):
        tally, seed, tie = case
        walked = seeded_divisor(tally, seed, rounding, "fixed", tie=tie)
        assert len(walked.sweep) == seed.fixed_extra
        jumped = seeded_divisor(tally, seed, rounding, "fixed", tie=tie, with_trace=False)
        assert jumped == dataclasses.replace(walked, sweep=())

    def test_zero_extra(self, lopsided):
        tally, _ = lopsided
        fixed = SeedDistribution(("A", "B"), (3, 1), fixed_extra=0)
        run = seeded_divisor(tally, fixed, stop="fixed")
        assert run.totals == (3, 1)
        assert run.multiplier is None
        assert run.residuals == (-3, -1)


class TestValidation:
    def test_zero_vote_district_holder_rejected(self):
        tally = VoteTally(("A", "B"), (0, 10))
        seed = SeedDistribution(("A", "B"), (1, 2))
        with pytest.raises(InputError, match="zero votes"):
            seeded_sequential_hare(tally, seed)
        with pytest.raises(InputError, match="zero votes"):
            seeded_divisor(tally, seed)

    def test_party_set_mismatch(self):
        tally = VoteTally(("A", "B"), (20, 80))
        seed = SeedDistribution(("X", "Y"), (3, 1))
        with pytest.raises(InputError, match="party set"):
            seeded_sequential_hare(tally, seed)

    def test_divisor_rejects_cap(self, lopsided):
        tally, _ = lopsided
        capped = SeedDistribution(("A", "B"), (3, 1), cap=3)
        with pytest.raises(InputError, match="sequential"):
            seeded_divisor(tally, capped)

    def test_stop_rule_must_match_the_seed(self, lopsided):
        tally, seed = lopsided
        fixed = SeedDistribution(("A", "B"), (3, 1), fixed_extra=2)
        with pytest.raises(InputError):
            seeded_divisor(tally, seed, stop="fixed")
        with pytest.raises(InputError):
            seeded_divisor(tally, fixed, stop="residual")
        with pytest.raises(InputError):
            seeded_divisor(tally, seed, stop="bisection")

    def test_rounding_validation(self, lopsided):
        with pytest.raises(InputError):
            seeded_divisor(*lopsided, rounding="floor", round_threshold=Fraction(1, 2))
        with pytest.raises(InputError, match="must be an int or a Fraction"):
            seeded_divisor(*lopsided, rounding="nearest", round_threshold=0.5)


@st.composite
def zero_district_cases(draw):
    """Small vote counts (ties are common) with no district seats."""
    k = draw(st.integers(1, 5))
    votes = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any))
    tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
    house = draw(st.integers(0, 30))
    seed = SeedDistribution(tally.party_ids, (0,) * k, fixed_extra=house)
    return tally, seed, house, draw(_TIES)


class TestZeroDistrictsMatchFixedHouse:
    """With no district seats, a fixed_extra = N run is a fixed-house run."""

    @settings(max_examples=300)
    @given(zero_district_cases(), st.sampled_from(["floor", "nearest"]))
    def test_fixed_stop_is_the_divisor_table(self, case, rounding):
        tally, seed, house, tie = case
        run = seeded_divisor(tally, seed, rounding, "fixed", tie=tie)
        method, t = (
            (DHONDT, 1) if rounding == "floor" else (SAINTE_LAGUE, Fraction(1, 2))
        )
        table, table_trace = highest_averages(tally, house, method, tie)
        assert run.totals == table.seats
        # row j: the multiplier at which the table's j-th winner gains its
        # seat, (n + t) V / v_i, and the seats after that step
        rows = []
        for j, step in enumerate(table_trace.steps, start=1):
            winner = tally.party_ids.index(step.winner)
            after = list(step.seats_before)
            after[winner] += 1
            multiplier = (step.seats_before[winner] + t) * Fraction(
                tally.total_votes, tally.votes[winner]
            )
            rows.append((multiplier, tuple(after), j))
        assert [
            (s.multiplier, s.extra_seats, s.total_extra) for s in run.sweep
        ] == rows
        sweep, trace = multiplicative(tally, house, rounding, tie=tie)
        if house > 0:
            assert run.multiplier == trace.witness
        assert run.tie_events == sweep.tie_events

    @settings(max_examples=300)
    @given(zero_district_cases())
    def test_fixed_extra_is_sequential_hare(self, case):
        tally, seed, house, tie = case
        run = seeded_sequential_hare(tally, seed, tie)
        allocation, awards = sequential_hare(tally, house, tie)
        assert run.totals == allocation.seats
        assert run.awards == awards
        assert [(e.tied, e.winners) for e in run.tie_events] == [
            (e.tied, e.winners) for e in allocation.tie_events
        ]


@st.composite
def seeded_cases(draw):
    """Small votes and district seats; every district holder polled votes."""
    k = draw(st.integers(1, 5))
    votes = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any))
    districts = tuple(draw(st.integers(0, 4)) if v else 0 for v in votes)
    tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
    return tally, SeedDistribution(tally.party_ids, districts)


class TestResidualSweepRows:
    @settings(max_examples=300)
    @given(
        seeded_cases(),
        st.sampled_from([("floor", None), ("nearest", None), ("nearest", Fraction(1, 3))]),
    )
    def test_rows_climb_to_the_multiplier_at_the_rounded_counts(self, case, rule):
        tally, seed = case
        rounding, threshold = rule
        run = seeded_divisor(tally, seed, rounding, round_threshold=threshold)
        t = _round_threshold(rounding, threshold)
        multipliers = [s.multiplier for s in run.sweep]
        assert multipliers[0] == seed.total + 1
        assert multipliers[-1] == run.multiplier
        assert all(a < b for a, b in zip(multipliers, multipliers[1:]))
        for row in run.sweep:
            assert row.extra_seats == tuple(_topups_at(tally, seed, t, row.multiplier))
            assert row.total_extra == sum(row.extra_seats)


def _assert_stops_at_the_first_balanced_house(tally, seed, run):
    """No award's house before the stop has every residual inside (-1, 1);
    the stop's house does."""
    held = list(seed.district_seats)

    def balanced(j):
        share = Fraction(seed.total + j, tally.total_votes)
        return all(abs(share * v - m) < 1 for v, m in zip(tally.votes, held))

    for award in run.awards:
        assert not balanced(award.iteration - 1)
        held[tally.party_ids.index(award.party)] += 1
    assert run.stop_iteration == len(run.awards)
    assert balanced(run.stop_iteration)
    assert run.totals == tuple(held)


class TestSequentialResidualStop:
    @pytest.mark.parametrize(
        "votes,districts,stop,totals",
        [
            ((1, 100), (5, 0), 400, (5, 400)),  # D = 5, stop region above M = 404
            # D = 14, above M = 3,360, with 38 tie events on the way
            ((3, 7, 1000, 250), (9, 4, 0, 1), 3347, (9, 18, 2667, 667)),
        ],
    )
    def test_a_stop_region_far_above_the_district_seats(self, votes, districts, stop, totals):
        tally = VoteTally(tuple(f"P{i + 1}" for i in range(len(votes))), votes)
        seed = SeedDistribution(tally.party_ids, districts)
        run = seeded_sequential_hare(tally, seed)
        assert seeded._dilution_bound(tally, seed) > 20 * seed.total
        assert (run.stop_reason, run.stop_iteration, run.totals) == (STOP_RESIDUAL, stop, totals)
        _assert_stops_at_the_first_balanced_house(tally, seed, run)

    @settings(max_examples=200)
    @given(seeded_cases())
    def test_the_residual_stop_is_the_first_balanced_house(self, case):
        run = seeded_sequential_hare(*case)
        assert run.stop_reason == STOP_RESIDUAL
        _assert_stops_at_the_first_balanced_house(*case, run)


def _per_iteration_run(tally, seed, tie, guard):
    """The residual and cap stops as one loop pass per top-up seat, each
    stop tested before every award: what the batched run must equal."""
    total = tally.total_votes
    ranks = tie.ranks(tally)
    m = list(seed.district_seats)
    winners, tops, events = [], [], []
    districts = seed.total
    bound = seeded._dilution_bound(tally, seed)
    earliest = math.ceil(bound) - districts
    capped = seed.cap is not None and seed.cap <= guard
    doomed = math.floor(bound) - districts + 1 > guard and not capped
    nums = [districts * v - mi * total for v, mi in zip(tally.votes, m)]
    j = 0
    while True:
        if j >= earliest and all(-total < x < total for x in nums):
            reason = STOP_RESIDUAL
            break
        if seed.cap is not None and j >= seed.cap:
            reason = STOP_CAP
            break
        if doomed or j >= guard:
            raise IterationGuardError(
                f"no residual stop within {guard} top-up seats; "
                f"the stop region begins above multiplier {bound}"
            )
        j += 1
        nums = [x + v for x, v in zip(nums, tally.votes)]
        methods._award_deficits(
            tally.party_ids, total, ranks, m, nums, None, (j,),
            "top-up", (winners, tops), events,
        )
    return SeededRun(
        party_ids=tally.party_ids,
        district_seats=seed.district_seats,
        extra_seats=tuple(mi - di for mi, di in zip(m, seed.district_seats)),
        totals=tuple(m),
        stop_iteration=j,
        stop_reason=reason,
        residuals=tuple(Fraction(x, total) for x in nums),
        awards=tuple(  # the row of top-up n, at house D + n, built here
            SeatAward(n, districts + n, tally.party_ids[w], Fraction(top, total))
            for n, (w, top) in enumerate(zip(winners, tops), 1)),
        tie_events=tuple(events),
    )


@st.composite
def batched_cases(draw):
    """Votes with repeats (ties inside the batch), districts none to many
    (D = 0, and a stop region at, below or far above them), and a cap of
    0, below or above the first seat the residual stop can be tested at."""
    k = draw(st.integers(1, 5))
    votes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 6]), min_size=k, max_size=k)
                 .filter(any))
    tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
    districts = tuple(draw(st.integers(0, 9)) if v and draw(st.booleans()) else 0
                      for v in votes)
    seed = SeedDistribution(tally.party_ids, districts)
    earliest = math.ceil(seeded._dilution_bound(tally, seed)) - seed.total
    first = max(0, earliest)
    cap = draw(st.none() | st.just(0) | st.integers(0, first)
               | st.integers(first + 1, first + 5))
    tie = draw(st.sampled_from([TiePolicy()]) | st.integers(0, 99).map(
        lambda s: TiePolicy("random", s)))
    guard = draw(st.sampled_from([seeded.MAX_TOPUP_ITERATIONS, 0, 1, first, first + 1]))
    return tally, SeedDistribution(tally.party_ids, districts, cap=cap), tie, guard


class TestBatchedResidualRun:
    @settings(max_examples=400, deadline=None)
    @given(batched_cases())
    def test_it_equals_the_per_iteration_loop(self, case):
        tally, seed, tie, guard = case
        with mock.patch.object(seeded, "MAX_TOPUP_ITERATIONS", guard):
            try:
                expected = _per_iteration_run(tally, seed, tie, guard)
            except IterationGuardError as exc:
                with pytest.raises(IterationGuardError) as caught:
                    seeded_sequential_hare(tally, seed, tie)
                assert str(caught.value) == str(exc)
                return
            run = seeded_sequential_hare(tally, seed, tie)
        assert run.totals == expected.totals
        assert run.residuals == expected.residuals
        assert run.awards == expected.awards
        assert run.tie_events == expected.tie_events
        assert (run.stop_reason, run.stop_iteration) == (
            expected.stop_reason, expected.stop_iteration)
        assert run == expected

    def test_the_batch_runs_up_to_the_first_testable_seat(self, monkeypatch):
        # votes (1, 100) with districts (5, 0): the stop region lies above
        # M = 404, so the first call awards the 399 seats below it at once,
        # and one more test and award end the run
        tally = VoteTally(("A", "B"), (1, 100))
        seed = SeedDistribution(("A", "B"), (5, 0))
        runs = []

        def counted(*args):
            runs.append(len(args[6]))
            return methods._award_deficits(*args)

        monkeypatch.setattr("apportion.seeded._award_deficits", counted)
        run = seeded_sequential_hare(tally, seed)
        assert run.stop_iteration == 400
        assert runs == [399, 1]


class TestUntracedSequentialRun:
    @settings(max_examples=300, deadline=None)
    @given(batched_cases(), st.one_of(st.none(), st.integers(0, 30)))
    def test_it_is_the_traced_run_without_its_award_log(self, case, fixed_extra):
        tally, seed, tie, _ = case
        if fixed_extra is not None:  # the fixed-house stop, with ties across the target
            seed = dataclasses.replace(seed, cap=None, fixed_extra=fixed_extra)
        traced = seeded_sequential_hare(tally, seed, tie)
        untraced = seeded_sequential_hare(tally, seed, tie, with_trace=False)
        assert untraced == dataclasses.replace(traced, awards=())

    def test_untraced_award_calls_build_no_log(self, lopsided, monkeypatch):
        logs = []

        def spy(*args, **kwargs):
            logs.append(args[8])  # the awards list, or None
            return methods._award_deficits(*args, **kwargs)

        monkeypatch.setattr("apportion.seeded._award_deficits", spy)
        run = seeded_sequential_hare(*lopsided, with_trace=False)
        assert (run.stop_iteration, run.awards) == (7, ())
        assert logs and all(log is None for log in logs)

    @pytest.mark.parametrize("flags, traced", [
        ((), False), (("--trace",), True), (("--format", "json"), True),
        (("--fixed-extra", "2"), False),
    ], ids=["table", "table-trace", "json", "fixed-table"])
    def test_the_cli_keeps_the_log_where_it_prints_it(self, tmp_path, monkeypatch,
                                                       flags, traced):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs["with_trace"])
            return seeded_sequential_hare(*args, **kwargs)

        monkeypatch.setattr(cli, "seeded_sequential_hare", spy)
        path = tmp_path / "seeded.csv"
        path.write_text("party,votes,districts\nA,20,3\nB,80,1\n")
        assert cli.main([str(path), *flags]) == 0
        assert calls == [traced]
