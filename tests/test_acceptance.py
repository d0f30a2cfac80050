"""Release gate: one test per acceptance criterion, every comparison exact.

The equivalence suite underlying criteria 2 and 3 runs once (module scope)
and is shared; everything else recomputes from scratch.  All assertions are
integer/rational equality — there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from apportion import (
    DHONDT,
    HARE,
    SAINTE_LAGUE,
    STOP_CAP,
    STOP_RESIDUAL,
    InstanceSpace,
    SeedDistribution,
    TiePolicy,
    VoteTally,
    bias_montecarlo,
    check_quota_property,
    dumps,
    equivalence_suite,
    find_house_monotonicity_violation,
    hare_niemeyer,
    highest_averages,
    multiplicative,
    seeded_divisor,
    seeded_sequential_hare,
    sequential_hare,
)
from apportion.methods import _topups_at

SUITE_TRIALS = 10_000
SUITE_TIME_BUDGET = 120.0  # seconds


@pytest.fixture(scope="module")
def equivalence_run():
    space = InstanceSpace.default(trials=SUITE_TRIALS, master_seed=0)
    started = time.perf_counter()
    report = equivalence_suite(space)
    return report, time.perf_counter() - started


def _random_tally(rng, max_parties=6, max_votes=10**6):
    k = rng.randint(1, max_parties)
    votes = [rng.randint(0, max_votes) for _ in range(k)]
    if not any(votes):
        votes[rng.randrange(k)] = 1
    return VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))


def test_criterion_01_worked_example_all_methods_and_forms():
    tally = VoteTally(("A", "B", "C"), (600, 300, 100))
    expected = (6, 3, 1)
    assert hare_niemeyer(tally, 10).seats == expected
    assert sequential_hare(tally, 10)[0].seats == expected
    for method, rounding in ((DHONDT, "floor"), (SAINTE_LAGUE, "nearest")):
        table, _ = highest_averages(tally, 10, method)
        scaled, _ = multiplicative(tally, 10, rounding)
        assert table.seats == expected
        assert scaled.seats == expected


def test_criterion_02_form_equivalence_suite(equivalence_run):
    report, elapsed = equivalence_run
    assert report.trials_run == SUITE_TRIALS
    assert report.disagreements == ()
    assert report.agreements == SUITE_TRIALS
    assert elapsed < SUITE_TIME_BUDGET


def test_criterion_03_quota_property(equivalence_run):
    report, _ = equivalence_run
    assert report.stats["hare_quota_ok"] == SUITE_TRIALS
    tally = VoteTally(("A", "B", "C"), (88, 6, 6))
    allocation, _ = highest_averages(tally, 10, DHONDT, with_trace=False)
    assert allocation.seats == (10, 0, 0)
    ok, violations = check_quota_property(tally, 10, allocation)
    assert not ok
    (violation,) = violations
    assert (violation.party, violation.seats, violation.upper) == ("A", 10, 9)


def test_criterion_04_close_race_scenario():
    tally = VoteTally(("A", "B", "C", "D"), (78, 78, 422, 422))
    assert hare_niemeyer(tally, 10).seats == (1, 1, 4, 4)
    assert highest_averages(tally, 10, DHONDT)[0].seats == (0, 0, 5, 5)
    assert highest_averages(tally, 10, SAINTE_LAGUE)[0].seats == (1, 1, 4, 4)


def test_criterion_05_alabama_paradox():
    tally = VoteTally(("A", "B", "C"), (6, 6, 2))
    assert hare_niemeyer(tally, 10).seats == (4, 4, 2)
    assert hare_niemeyer(tally, 11).seats == (5, 5, 1)  # C loses a seat
    space = InstanceSpace(
        parties=(2, 4), votes=(1, 30), house=(2, 30), trials=2000, master_seed=11
    )
    witness = find_house_monotonicity_violation(space, HARE)
    assert witness is not None and witness.losers
    assert find_house_monotonicity_violation(space, DHONDT) is None
    assert find_house_monotonicity_violation(space, SAINTE_LAGUE) is None


def test_criterion_06_seeded_runs():
    tally = VoteTally(("A", "B", "C"), (50, 30, 20))
    run = seeded_sequential_hare(tally, SeedDistribution(("A", "B", "C"), (3, 2, 0)))
    assert (run.stop_iteration, run.totals) == (1, (3, 2, 1))
    assert run.stop_reason == STOP_RESIDUAL

    lopsided = VoteTally(("A", "B"), (20, 80))
    run = seeded_sequential_hare(lopsided, SeedDistribution(("A", "B"), (3, 1)))
    assert (run.stop_iteration, run.totals) == (7, (3, 8))

    capped = SeedDistribution(("A", "B"), (3, 1), cap=3)
    run = seeded_sequential_hare(lopsided, capped)
    assert run.totals == (3, 4)
    assert run.stop_reason == STOP_CAP


def test_criterion_07_property_sweep():
    rng = random.Random(20_240_817)
    for _ in range(200):
        tally = _random_tally(rng)
        n = rng.randint(0, 60)
        seed = rng.getrandbits(64)
        tie = TiePolicy("random", seed)

        # completeness, per method and form
        allocations = [
            hare_niemeyer(tally, n, tie),
            sequential_hare(tally, n, tie)[0],
            highest_averages(tally, n, DHONDT, tie, with_trace=False)[0],
            highest_averages(tally, n, SAINTE_LAGUE, tie, with_trace=False)[0],
            multiplicative(tally, n, "floor", tie=tie, with_trace=False)[0],
            multiplicative(tally, n, "nearest", tie=tie, with_trace=False)[0],
        ]
        assert all(sum(a.seats) == n for a in allocations)

        # scale invariance
        factor = rng.randint(2, 1000)
        scaled = VoteTally(tally.party_ids, tuple(v * factor for v in tally.votes))
        assert hare_niemeyer(scaled, n, tie).seats == allocations[0].seats
        for method, reference in ((DHONDT, allocations[2]), (SAINTE_LAGUE, allocations[3])):
            again, _ = highest_averages(scaled, n, method, tie, with_trace=False)
            assert again.seats == reference.seats

        # house monotonicity (divisor methods)
        for method, reference in ((DHONDT, allocations[2]), (SAINTE_LAGUE, allocations[3])):
            grown, _ = highest_averages(tally, n + 1, method, tie, with_trace=False)
            assert all(b >= a for a, b in zip(reference.seats, grown.seats))

        # vote monotonicity (divisor methods): more votes never cost a seat
        index = rng.randrange(tally.party_count)
        votes = list(tally.votes)
        votes[index] += rng.randint(1, 10**6)
        raised = VoteTally(tally.party_ids, tuple(votes))
        for method, reference in ((DHONDT, allocations[2]), (SAINTE_LAGUE, allocations[3])):
            after, _ = highest_averages(raised, n, method, tie, with_trace=False)
            assert after.seats[index] >= reference.seats[index]

        # determinism under a fixed seed
        assert hare_niemeyer(tally, n, tie) == allocations[0]
        assert (
            highest_averages(tally, n, DHONDT, tie, with_trace=False)[0]
            == allocations[2]
        )

    # seeded sequential: every run ends with all residual overshoot below one
    for _ in range(150):
        tally = _random_tally(rng, max_parties=5, max_votes=500)
        districts = tuple(rng.randint(0, 8) if v > 0 else 0 for v in tally.votes)
        seed = SeedDistribution(tally.party_ids, districts)
        run = seeded_sequential_hare(tally, seed)
        assert run.stop_reason == STOP_RESIDUAL
        assert all(abs(r) < 1 for r in run.residuals)
        assert all(award.deficit > 0 for award in run.awards)
        for rounding, t in (("floor", Fraction(1)), ("nearest", Fraction(1, 2))):
            div = seeded_divisor(tally, seed, rounding, with_trace=False)
            assert all(abs(r) < 1 for r in div.residuals)
            assert div.extra_seats == tuple(_topups_at(tally, seed, t, div.multiplier))


def test_criterion_08_reproducibility():
    space = InstanceSpace.default(trials=500, master_seed=0)
    serial = dumps(equivalence_suite(space))
    assert dumps(equivalence_suite(space, jobs=4)) == serial
    assert dumps(equivalence_suite(space)) == serial

    bias_serial = dumps(bias_montecarlo(space))
    assert dumps(bias_montecarlo(space, jobs=3)) == bias_serial
    assert dumps(bias_montecarlo(space)) == bias_serial
