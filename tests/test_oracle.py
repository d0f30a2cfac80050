"""Brute-force and cross-form checks that treat the engines as black boxes."""

import dataclasses
import json
from fractions import Fraction

import pytest

from apportion import (
    DHONDT,
    HARE,
    SAINTE_LAGUE,
    EnumerationGuardError,
    InputError,
    InstanceSpace,
    SuiteReport,
    VoteTally,
    bias_montecarlo,
    check_quota_property,
    compute_quotas,
    enumerate_allocations,
    equivalence_suite,
    find_house_monotonicity_violation,
    find_quota_violation,
    dumps,
    hare_niemeyer,
    highest_averages,
    jsonify,
)
from apportion import cli, methods, oracle
from apportion.oracle import Mismatch
from apportion.types import IterationGuardError

# Votes of at most 20 make coincident values common, so the tie policy
# decides seats in most trials; the default space almost never ties.
TIE_RICH = InstanceSpace(
    parties=(2, 8), votes=(0, 20), house=(1, 200), trials=2000, master_seed=0
)


class TestInstanceSpace:
    def test_trials_are_reproducible(self):
        space = InstanceSpace.default(trials=20, master_seed=7)
        again = InstanceSpace.default(trials=20, master_seed=7)
        for i in range(20):
            assert space.trial_instance(i) == again.trial_instance(i)

    def test_trials_respect_the_declared_ranges(self):
        space = InstanceSpace(
            parties=(2, 5), votes=(0, 99), house=(1, 30), trials=60, master_seed=1
        )
        for i in range(60):
            trial = space.trial_instance(i)
            k = trial.tally.party_count
            assert 2 <= k <= 5
            assert trial.tally.party_ids == tuple(f"P{j + 1}" for j in range(k))
            assert all(0 <= v <= 99 for v in trial.tally.votes)
            assert 1 <= trial.house_size <= 30
            assert trial.tie.mode == "random"

    def test_all_zero_draws_are_redrawn(self):
        # with a 0..1 vote range many trials draw all zeros; each must end
        # up with at least one positive count or VoteTally would reject it
        space = InstanceSpace(
            parties=(2, 3), votes=(0, 1), house=(1, 5), trials=200, master_seed=5
        )
        for i in range(200):
            assert any(space.trial_instance(i).tally.votes)

    def test_index_bounds(self):
        space = InstanceSpace.default(trials=3, master_seed=0)
        with pytest.raises(InputError):
            space.trial_instance(3)
        with pytest.raises(InputError):
            space.trial_instance(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"parties": (5, 2)},
            {"parties": (0, 3)},
            {"votes": (0, 0)},
            {"votes": (-1, 10)},
            {"house": (-2, 5)},
            {"trials": -1},
            {"master_seed": -1},
            {"trials": 2.5},
            {"trials": True},
            {"master_seed": "7"},
            {"parties": (2, 4.5)},
            {"votes": (0.5, 100)},
            {"house": (1, True)},
            {"parties": ("2", 4)},
            {"parties": (1, 2, 3)},
            {"parties": 5},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(parties=(2, 4), votes=(0, 100), house=(1, 20),
                    trials=10, master_seed=0)
        with pytest.raises(InputError):
            InstanceSpace(**{**base, **kwargs})


class TestEnumeration:
    def test_three_parties_four_seats(self):
        vectors = list(enumerate_allocations(3, 4))
        assert len(vectors) == 15
        assert vectors == sorted(vectors)  # lexicographic
        assert all(sum(v) == 4 for v in vectors)
        assert vectors[0] == (0, 0, 4)
        assert vectors[-1] == (4, 0, 0)

    def test_degenerate_cases(self):
        assert list(enumerate_allocations(1, 7)) == [(7,)]
        assert list(enumerate_allocations(4, 0)) == [(0, 0, 0, 0)]

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            enumerate_allocations(10, 1000)

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            enumerate_allocations(0, 5)
        with pytest.raises(InputError):
            enumerate_allocations(3, -1)
        for party_count, house_size in ((2.5, 3), (2, None), (True, 2), (2, 3.0),
                                        ("2", 3), (2, False)):
            with pytest.raises(InputError):
                enumerate_allocations(party_count, house_size)


class TestQuotaProperty:
    def test_within_bounds(self, worked_example):
        allocation = hare_niemeyer(worked_example, 10)
        ok, violations = check_quota_property(worked_example, 10, allocation)
        assert ok and violations == ()

    def test_dhondt_overshoot_detected(self):
        tally = VoteTally(("A", "B", "C"), (88, 6, 6))
        allocation, _ = highest_averages(tally, 10, DHONDT, with_trace=False)
        ok, violations = check_quota_property(tally, 10, allocation)
        assert not ok
        (violation,) = violations
        assert violation.party == "A"
        assert (violation.seats, violation.lower, violation.upper) == (10, 8, 9)

    def test_rejects_foreign_allocation(self, three_way, close_race):
        with pytest.raises(InputError):
            check_quota_property(three_way, 10, hare_niemeyer(close_race, 10))
        with pytest.raises(InputError):
            check_quota_property(three_way, 10, hare_niemeyer(three_way, 7))

    def test_rejects_a_non_integer_house_size(self, worked_example):
        allocation = hare_niemeyer(worked_example, 2)
        for house_size in (2.0, True, None):
            with pytest.raises(InputError, match="non-negative integer"):
                check_quota_property(worked_example, house_size, allocation)


def test_hare_minimizes_total_deviation_from_ideal():
    """Brute force: no seat vector beats Hare on sum |ideal - seats|."""
    space = InstanceSpace(
        parties=(2, 4), votes=(0, 50), house=(1, 8), trials=60, master_seed=9
    )
    for i in range(space.trials):
        trial = space.trial_instance(i)
        tally, n = trial.tally, trial.house_size
        report = compute_quotas(tally, n)
        hare = hare_niemeyer(tally, n, trial.tie)
        cost = sum(abs(r) for r in report.residuals_for(hare))
        best = min(
            sum(abs(ideal - s) for ideal, s in zip(report.ideals, vector))
            for vector in enumerate_allocations(tally.party_count, n)
        )
        assert cost == best


class TestEquivalenceSuite:
    def test_forms_agree_across_a_random_space(self):
        space = InstanceSpace.default(trials=300, master_seed=0)
        report = equivalence_suite(space)
        assert report.suite == "equivalence"
        assert report.trials_run == 300
        assert report.agreements == 300
        assert report.disagreements == ()
        assert report.stats["hare_quota_ok"] == 300

    def test_parallel_run_is_identical_to_serial(self):
        space = InstanceSpace.default(trials=120, master_seed=4)
        assert equivalence_suite(space, jobs=3) == equivalence_suite(space, jobs=1)

    def test_forms_agree_where_ties_decide_seats(self):
        report = equivalence_suite(TIE_RICH)
        assert len(report.disagreements) == 0
        assert report.agreements == 2000
        assert report.stats["hare_quota_ok"] == 2000
        assert dumps(equivalence_suite(TIE_RICH, jobs=2)) == dumps(report)

    def test_jobs_are_clamped_to_the_cpu_count(self, inline_pool, monkeypatch):
        space = InstanceSpace.default(trials=30, master_seed=5)
        serial = equivalence_suite(space)
        assert equivalence_suite(space, jobs=10_000) == serial
        assert bias_montecarlo(space, jobs=10_000) == bias_montecarlo(space)
        assert inline_pool == [3, 3]
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)  # unknown: one
        assert equivalence_suite(space, jobs=10_000) == serial
        assert inline_pool == [3, 3]

    def test_jobs_must_be_a_positive_integer(self, inline_pool):
        space = InstanceSpace.default(trials=30, master_seed=5)
        for suite in (equivalence_suite, bias_montecarlo):
            for jobs in (2.5, 0, -3, True, None, "2"):
                with pytest.raises(InputError, match="jobs must be a positive integer"):
                    suite(space, jobs=jobs)
        assert inline_pool == []

    def test_hare_side_is_the_per_seat_loop(self, monkeypatch):
        # the suite compares largest remainder against an independent
        # seat-by-seat loop, not against the jump or largest remainder itself
        runs = []
        award = methods._award_deficits

        def counting(*args):
            runs.append(args)
            return award(*args)

        monkeypatch.setattr(methods, "_award_deficits", counting)
        report = equivalence_suite(InstanceSpace.default(trials=20, master_seed=5))
        assert report.agreements == 20
        assert len(runs) == 20

    def test_empty_space(self):
        report = equivalence_suite(InstanceSpace.default(trials=0, master_seed=0))
        assert (report.trials_run, report.agreements) == (0, 0)

    def test_report_invariant_enforced(self):
        space = InstanceSpace.default(trials=5, master_seed=0)
        with pytest.raises(InputError):
            SuiteReport(suite="equivalence", space=space, trials_run=5, agreements=3)


class TestPathologySearches:
    def test_dhondt_breaks_quota_somewhere(self):
        space = InstanceSpace(
            parties=(2, 6), votes=(0, 1000), house=(1, 50), trials=2000, master_seed=3
        )
        witness = find_quota_violation(space, DHONDT)
        assert witness is not None
        assert witness.trial.index == 57  # earliest hit in this space
        assert witness.violations
        for violation in witness.violations:
            n = witness.seats[witness.trial.tally.party_ids.index(violation.party)]
            assert n == violation.seats
            assert not violation.lower <= n <= violation.upper

    def test_hare_never_breaks_quota(self):
        space = InstanceSpace(
            parties=(2, 6), votes=(0, 1000), house=(1, 50), trials=2000, master_seed=3
        )
        assert find_quota_violation(space, HARE) is None

    def test_hare_alabama_paradox_found(self):
        space = InstanceSpace(
            parties=(2, 4), votes=(1, 30), house=(2, 30), trials=2000, master_seed=11
        )
        witness = find_house_monotonicity_violation(space, HARE)
        assert witness is not None
        assert witness.trial.index == 31
        assert witness.losers
        ids = witness.trial.tally.party_ids
        for pid in witness.losers:
            i = ids.index(pid)
            assert witness.seats_larger[i] < witness.seats_smaller[i]

    @pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
    def test_divisor_methods_are_house_monotone(self, method):
        space = InstanceSpace(
            parties=(2, 4), votes=(1, 30), house=(2, 30), trials=2000, master_seed=11
        )
        assert find_house_monotonicity_violation(space, method) is None

    @pytest.mark.parametrize("method", ["imperiali", []])
    def test_unknown_method_is_an_input_error(self, method):
        space = InstanceSpace.default(trials=3)
        with pytest.raises(InputError):
            find_quota_violation(space, method)
        with pytest.raises(InputError):
            find_house_monotonicity_violation(space, method)


class TestBias:
    SPACE = InstanceSpace(
        parties=(2, 6), votes=(0, 10**6), house=(1, 100), trials=200, master_seed=13
    )

    def test_largest_party_advantage_is_exact(self):
        report = bias_montecarlo(self.SPACE)
        rank1 = report.stats["by_rank"]["1"]
        assert rank1["trials"] == 200
        assert rank1["mean_dhondt_minus_hare"] == Fraction(59, 200)
        assert rank1["mean_dhondt_minus_sainte_lague"] == Fraction(57, 200)
        largest = report.stats["mean_seats_largest"]
        assert largest[HARE] == Fraction(2313, 100)
        assert largest[DHONDT] == Fraction(937, 40)
        assert largest[SAINTE_LAGUE] == Fraction(1157, 50)
        assert largest[DHONDT] > largest[SAINTE_LAGUE] > largest[HARE]

    def test_parallel_run_is_identical_to_serial(self):
        assert bias_montecarlo(self.SPACE, jobs=3) == bias_montecarlo(self.SPACE)

    def test_empty_space(self):
        report = bias_montecarlo(InstanceSpace.default(trials=0, master_seed=0))
        assert report.stats == {"trials": 0, "by_rank": {}}
        assert (report.trials_run, report.agreements) == (0, 0)

    def test_every_party_is_counted_at_its_rank(self):
        report = bias_montecarlo(self.SPACE)
        parties = sum(
            self.SPACE.trial_instance(i).tally.party_count
            for i in range(self.SPACE.trials)
        )
        assert sum(r["trials"] for r in report.stats["by_rank"].values()) == parties
        assert list(report.stats["by_rank"]) == [str(r) for r in range(1, 7)]

    def test_slices_in_the_pool_match_the_serial_run(self, inline_pool):
        assert bias_montecarlo(self.SPACE, jobs=3) == bias_montecarlo(self.SPACE)
        assert inline_pool == [3]


# The equivalence suite's failure path, seen through a multiplicative form
# that moves one d'Hondt seat from the first party to the second wherever
# the first holds more seats than the second.
BROKEN_SPACE = InstanceSpace.default(trials=30, master_seed=0)


@pytest.fixture
def broken_dhondt(monkeypatch):
    real = oracle.multiplicative

    def broken(tally, house_size, rounding="floor", **kwargs):
        allocation, trace = real(tally, house_size, rounding, **kwargs)
        seats = allocation.seats
        if rounding == "floor" and seats[0] > seats[1]:
            seats = (seats[0] - 1, seats[1] + 1, *seats[2:])
        return dataclasses.replace(allocation, seats=seats), trace

    monkeypatch.setattr(oracle, "multiplicative", broken)


def _table_seats(trial):
    return highest_averages(
        trial.tally, trial.house_size, DHONDT, trial.tie, with_trace=False
    )[0].seats


def test_a_broken_form_is_reported_trial_by_trial(broken_dhondt):
    report = equivalence_suite(BROKEN_SPACE)
    trials = [BROKEN_SPACE.trial_instance(i) for i in range(BROKEN_SPACE.trials)]
    broken = [t for t in trials if _table_seats(t)[0] > _table_seats(t)[1]]
    assert len(broken) > 10  # more than the CLI table lists
    assert report.trials_run == 30
    assert report.agreements + len(report.disagreements) == report.trials_run
    assert [d.trial for d in report.disagreements] == broken
    for disagreement in report.disagreements:
        left = _table_seats(disagreement.trial)
        right = (left[0] - 1, left[1] + 1, *left[2:])
        assert disagreement.mismatches == (Mismatch("dhondt-forms", left, right),)
    assert report.stats == {"trials": 30, "hare_quota_ok": 30}


def test_the_cli_table_lists_the_first_ten_disagreements(broken_dhondt, capsys):
    argv = ["--suite", "equivalence", "--trials", "30", "--master-seed", "0"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    report = equivalence_suite(BROKEN_SPACE)
    assert lines[:3] == [
        "equivalence suite: 30 trials, master seed 0",
        f"agreements {report.agreements}, disagreements {len(report.disagreements)}",
        "hare within quota: 30/30",
    ]
    assert lines[3:] == [
        f"  trial {d.trial.index} (dhondt-forms): "
        f"{d.mismatches[0].left} != {d.mismatches[0].right}"
        for d in report.disagreements[:10]
    ]


def test_the_json_report_carries_every_mismatch(broken_dhondt, capsys):
    argv = ["--suite", "equivalence", "--trials", "30", "--format", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["suite_report"]
    report = equivalence_suite(BROKEN_SPACE)
    assert payload == jsonify(report)
    first = payload["disagreements"][0]
    assert first["trial"]["index"] == report.disagreements[0].trial.index
    mismatch = report.disagreements[0].mismatches[0]
    assert first["mismatches"] == [
        {"comparison": "dhondt-forms", "left": list(mismatch.left),
         "right": list(mismatch.right)}
    ]


def _recursive_allocations(k, n):
    """The seat vectors of ``k`` parties and ``n`` seats, built recursively."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _recursive_allocations(k - 1, n - first):
            yield (first,) + rest


def test_enumeration_matches_a_recursive_reference():
    for k in range(1, 7):
        for n in range(8):
            assert list(enumerate_allocations(k, n)) == list(_recursive_allocations(k, n))


def test_enumeration_does_not_recurse_once_per_party():
    assert list(enumerate_allocations(1000, 0)) == [(0,) * 1000]
    vectors = enumerate_allocations(3000, 1)
    assert next(vectors) == (0,) * 2999 + (1,)
    *_, last = vectors
    assert last == (1,) + (0,) * 2999
    assert list(enumerate_allocations(1, 10**12)) == [(10**12,)]


def test_an_unknown_method_is_refused_on_an_empty_space():
    space = InstanceSpace.default(trials=0)
    for search in (find_quota_violation, find_house_monotonicity_violation):
        with pytest.raises(InputError, match="unknown method 'bogus'"):
            search(space, "bogus")


@pytest.mark.parametrize("entry,args", [
    (equivalence_suite, {"jobs": 2}), (bias_montecarlo, {"jobs": 2}),
    (find_quota_violation, {}), (find_house_monotonicity_violation, {}),
])
def test_a_space_over_the_trial_limit_is_refused_before_any_trial(entry, args, monkeypatch):
    def no_trial(self, index):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(InstanceSpace, "trial_instance", no_trial)
    limit = oracle.MAX_TRIALS
    assert limit == 10**7
    with pytest.raises(IterationGuardError) as refused:
        entry(InstanceSpace.default(trials=limit + 1), **args)
    assert str(refused.value) == f"the suite would run {limit + 1} trials (limit {limit})"
    with pytest.raises(AssertionError, match="a trial was drawn"):  # the limit itself runs
        entry(InstanceSpace.default(trials=limit))


def test_enumeration_refuses_a_vector_longer_than_the_guard(monkeypatch):
    guard = oracle.ENUMERATION_GUARD
    for party_count in (guard + 1, 10**30):  # one vector of k slots, refused before it is built
        with pytest.raises(EnumerationGuardError) as refused:
            enumerate_allocations(party_count, 0)
        assert str(refused.value) == (
            f"enumeration would build vectors of {party_count} parties (guard {guard})")
    monkeypatch.setattr(oracle, "ENUMERATION_GUARD", 5)
    assert list(enumerate_allocations(5, 0)) == [(0,) * 5]
    with pytest.raises(EnumerationGuardError, match="vectors of 6 parties"):
        enumerate_allocations(6, 0)


def test_enumeration_refuses_a_count_past_printing_without_computing_it():
    with pytest.raises(EnumerationGuardError) as refused:
        enumerate_allocations(10**6 + 1, 10**6)  # math.comb: 42 s on a 2-vCPU VM
    assert str(refused.value) == (
        f"enumeration would emit over 10**4300 seat vectors (guard {oracle.ENUMERATION_GUARD})")
    with pytest.raises(EnumerationGuardError, match="over 10"):
        enumerate_allocations(1000, 10**40)  # a count of 40,000 digits


def test_a_party_range_past_the_limit_is_refused_before_any_vote_is_drawn():
    limit = oracle.MAX_PARTIES
    assert limit == 10**5
    for top in (limit + 1, 10**9, 10**5000):  # the message prints no huge int
        with pytest.raises(InputError) as refused:
            InstanceSpace(parties=(1, top), votes=(0, 10), house=(1, 1), trials=1,
                          master_seed=0)
        assert str(refused.value) == f"party range must end at {limit} or below"
    space = InstanceSpace(parties=(limit, limit), votes=(0, 10), house=(1, 1), trials=1,
                          master_seed=0)
    assert space.trial_instance(0).tally.party_count == limit
