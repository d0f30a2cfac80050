"""Two-stage (district seats + proportional top-up) allocation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    InputError,
    IterationGuardError,
    STOP_CAP,
    STOP_FIXED,
    STOP_RESIDUAL,
    SeedDistribution,
    TiePolicy,
    VoteTally,
    multiplicative,
    seeded_divisor,
    seeded_sequential_hare,
    sequential_hare,
)


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

    def test_iteration_guard(self, lopsided):
        tally, seed = lopsided
        with pytest.raises(IterationGuardError):
            seeded_sequential_hare(tally, seed, max_iterations=5)


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
        from apportion.seeded import _topups_at

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


@st.composite
def zero_district_cases(draw):
    """Small vote counts (ties are common) with no district seats."""
    k = draw(st.integers(1, 5))
    votes = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any))
    tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
    house = draw(st.integers(0, 30))
    seed = SeedDistribution(tally.party_ids, (0,) * k, fixed_extra=house)
    tie = draw(
        st.one_of(
            st.just(TiePolicy()),
            st.integers(0, 2**64 - 1).map(lambda s: TiePolicy("random", s)),
        )
    )
    return tally, seed, house, tie


class TestZeroDistrictsMatchFixedHouse:
    """With no district seats, a fixed_extra = N run is a fixed-house run."""

    @settings(max_examples=300)
    @given(zero_district_cases(), st.sampled_from(["floor", "nearest"]))
    def test_fixed_stop_is_the_threshold_engine(self, case, rounding):
        tally, seed, house, tie = case
        run = seeded_divisor(tally, seed, rounding, "fixed", tie=tie)
        allocation, trace = multiplicative(
            tally, house, rounding, tie=tie, engine="threshold"
        )
        assert run.totals == allocation.seats
        if house > 0:
            assert run.multiplier == trace.witness
        assert run.tie_events == allocation.tie_events
        raises = [
            (s.multiplier, s.seats, s.total) for s in trace.steps if s.action == "raise"
        ]
        assert [
            (s.multiplier, s.extra_seats, s.total_extra) for s in run.sweep
        ] == raises

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
