import random
from fractions import Fraction

import pytest

from apportion import (
    Allocation,
    InputError,
    InstanceSpace,
    STOP_RESIDUAL,
    SeedDistribution,
    SeededRun,
    SuiteReport,
    TieEvent,
    TiePolicy,
    VoteTally,
    bias_montecarlo,
    check_quota_property,
    compute_quotas,
    equivalence_suite,
    find_house_monotonicity_violation,
    find_quota_violation,
    hare_niemeyer,
    highest_averages,
    jump_allocation,
    multiplicative,
    seats_at_multiplier,
    seeded_divisor,
    seeded_sequential_hare,
    sequential_hare,
)
from apportion import types


def test_tally_totals_and_shares():
    tally = VoteTally(("A", "B"), (1, 3))
    assert tally.total_votes == 4
    assert tally.party_count == 2
    assert tally.share(0) == Fraction(1, 4)
    assert tally.share(1) == Fraction(3, 4)


def test_from_pairs_preserves_order():
    tally = VoteTally.from_pairs([("X", 5), ("Y", 1)])
    assert tally.party_ids == ("X", "Y")
    assert tally.votes == (5, 1)


@pytest.mark.parametrize(
    "ids,votes",
    [
        ((), ()),
        (("A",), (1, 2)),
        (("A", "A"), (1, 2)),
        (("A",), (-1,)),
        (("A", "B"), (0, 0)),
        (("A",), (1.5,)),
        (("A", "B"), (True, 3)),
        (["x", "y"], [1, 2]),  # a list would leave the tally unhashable
        (("x", "y"), [1, 2]),
        (["x", "y"], (1, 2)),
        ((1, "1"), (1, 2)),  # ids whose printed forms are equal
        (("A", None), (1, 2)),
        ((("A",), "B"), (1, 2)),
        ((["A"], "B"), (1, 2)),  # unhashable: refused before the duplicate check
    ],
)
def test_tally_rejects_invalid_input(ids, votes):
    with pytest.raises(InputError):
        VoteTally(ids, votes)


def test_deterministic_ranks_prefer_votes_then_position():
    tally = VoteTally(("A", "B", "C", "D"), (10, 30, 30, 5))
    assert TiePolicy().ranks(tally) == (2, 0, 1, 3)


def test_random_ranks_are_replayable_permutations():
    tally = VoteTally(tuple("ABCDE"), (1, 1, 1, 1, 1))
    first = TiePolicy("random", 99).ranks(tally)
    assert first == TiePolicy("random", 99).ranks(tally)
    assert sorted(first) == list(range(5))
    # two-party orders are pinned for use elsewhere in the suite
    pair = VoteTally(("A", "B"), (1, 1))
    assert TiePolicy("random", 0).ranks(pair) == (0, 1)
    assert TiePolicy("random", 1).ranks(pair) == (1, 0)


def test_random_ranks_survive_eviction_from_the_memo():
    memo = types._random_ranks
    memo.cache_clear()
    keys = [(seed, k) for seed in range(memo.cache_info().maxsize + 4) for k in (3, 7)]
    evicted, recent = keys[:5], keys[-3:]
    for seed, k in keys + evicted + recent:
        order = list(range(k))
        random.Random(seed).shuffle(order)
        tally = VoteTally(tuple(f"P{i}" for i in range(k)), (1,) * k)
        ranks = TiePolicy("random", seed).ranks(tally)
        assert [ranks.index(position) for position in range(k)] == order
    info = memo.cache_info()
    assert (info.misses, info.hits) == (len(keys) + len(evicted), len(recent))


@pytest.mark.parametrize(
    "mode,seed",
    [
        ("coin-flip", None),
        ("random", None),
        ("deterministic", 1),
        ("random", -1),
        ("random", True),
        ("random", 1.5),
        ("random", "7"),
        ("random", [1]),
    ],
)
def test_tie_policy_validation(mode, seed):
    with pytest.raises(InputError):
        TiePolicy(mode, seed)


def test_allocation_must_sum_to_house_size():
    with pytest.raises(InputError):
        Allocation(("A", "B"), (1, 1), 3, "hare", "largest-remainder")
    with pytest.raises(InputError):
        Allocation(("A", "B"), (1, -1), 0, "hare", "largest-remainder")


def test_seat_counts_reject_bools():
    with pytest.raises(InputError):
        Allocation(("A",), (True,), 1, "hare", "largest-remainder")
    with pytest.raises(InputError):  # totals that equal d + x but are bools
        SeededRun(("A",), (0,), (1,), (True,), 1, STOP_RESIDUAL, (Fraction(0),))
    with pytest.raises(InputError):
        SeededRun(("A",), (0,), (True,), (1,), 1, STOP_RESIDUAL, (Fraction(0),))
    run = SeededRun(("A",), (0,), (1,), (1,), 1, STOP_RESIDUAL, (Fraction(0),))
    assert run.totals == (1,)


@pytest.mark.parametrize(
    "fields",
    [
        (("A",), [1], 1, "hare", "x"),
        (["A"], (1,), 1, "hare", "x"),
        (("A",), (1,), 1, "hare", "x", []),
    ],
)
def test_allocation_rejects_fields_that_are_not_tuples(fields):
    # a list field used to build, and hash() then raised TypeError
    with pytest.raises(InputError, match="must be tuples"):
        Allocation(*fields)


def test_allocation_seat_lookup():
    allocation = Allocation(("A", "B"), (2, 1), 3, "hare", "largest-remainder")
    assert allocation.seat_of("B") == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"party_ids": ("A",), "district_seats": (1, 2)},
        {"party_ids": ("A",), "district_seats": (-1,)},
        {"party_ids": ("A",), "district_seats": (1,), "cap": -1},
        {"party_ids": ("A",), "district_seats": (1,), "fixed_extra": -2},
        {"party_ids": ("A",), "district_seats": (1,), "cap": 1, "fixed_extra": 1},
        # counts are ints: 1.5 used to cap at 2 top-ups and True at 1
        {"party_ids": ("A",), "district_seats": (1,), "cap": 1.5},
        {"party_ids": ("A",), "district_seats": (1,), "cap": True},
        {"party_ids": ("A",), "district_seats": (1,), "cap": "3"},
        {"party_ids": ("A",), "district_seats": (1,), "fixed_extra": 2.5},
        {"party_ids": ("A",), "district_seats": (1,), "fixed_extra": True},
        # tuples only: a list used to reach SeededRun.district_seats unchanged
        {"party_ids": ("A",), "district_seats": [1]},
        {"party_ids": ["A"], "district_seats": (1,)},
    ],
)
def test_seed_distribution_validation(kwargs):
    with pytest.raises(InputError):
        SeedDistribution(**kwargs)


def test_seed_distribution_total():
    assert SeedDistribution(("A", "B"), (2, 1)).total == 3


def test_residuals_for_rejects_foreign_allocations():
    tally = VoteTally(("A", "B"), (3, 1))
    report = compute_quotas(tally, 4)
    foreign = hare_niemeyer(VoteTally(("X", "Y"), (3, 1)), 4)
    with pytest.raises(InputError):
        report.residuals_for(foreign)
    other_house = hare_niemeyer(tally, 5)
    with pytest.raises(InputError):
        report.residuals_for(other_house)


@pytest.mark.parametrize(
    "fields",
    [("c", ["a"], ["a"]), ("c", ["a"], ("a",)), ("c", ("a",), ["a"]), ("c", "a", ("a",))],
)
def test_tie_event_rejects_fields_that_are_not_tuples(fields):
    # a list field used to build, and hash() then raised TypeError
    with pytest.raises(InputError, match="must be tuples"):
        TieEvent(*fields)
    assert hash(TieEvent("c", ("a",), ("a",))) == hash(TieEvent("c", ("a",), ("a",)))


_TALLY = VoteTally(("A", "B"), (1, 2))
_SEED = SeedDistribution(("A", "B"), (1, 0))


def _case(call, message, suffix=""):
    """One case under the id pytest once derived from its message, so that
    appending a case with the same message renames no existing case."""
    return pytest.param(call, message, id=f"<lambda>-{message}{suffix}")


@pytest.mark.parametrize(
    "call, message",
    [
        _case(lambda: highest_averages(_TALLY, 3, "dhondt", None), "tie must be a TiePolicy", 0),
        _case(lambda: multiplicative([1, 2], 3), "tally must be a VoteTally", 0),
        _case(lambda: multiplicative(_TALLY, 3, tie=None), "tie must be a TiePolicy", 1),
        _case(lambda: sequential_hare(_TALLY, 3, "x"), "tie must be a TiePolicy", 2),
        _case(lambda: hare_niemeyer(_TALLY, 3, None), "tie must be a TiePolicy", 3),
        _case(lambda: jump_allocation([1, 2], 3, "dhondt"), "tally must be a VoteTally", 1),
        _case(lambda: highest_averages((1, 2), 3), "tally must be a VoteTally", 2),
        _case(lambda: jump_allocation(_TALLY, 3, "hare", "deterministic"),
              "tie must be a TiePolicy", 4),
        _case(lambda: compute_quotas(None, 3), "tally must be a VoteTally, not NoneType"),
        _case(lambda: equivalence_suite(None), "space must be an InstanceSpace, not NoneType"),
        _case(lambda: bias_montecarlo(1), "space must be an InstanceSpace, not int"),
        _case(lambda: find_quota_violation(None), "space must be an InstanceSpace", 0),
        _case(lambda: find_house_monotonicity_violation(None),
              "space must be an InstanceSpace", 1),
        _case(lambda: check_quota_property(_TALLY, 3, None), "allocation must be an Allocation"),
        _case(lambda: check_quota_property(None, 3, hare_niemeyer(_TALLY, 3)),
              "tally must be a VoteTally", 3),
        _case(lambda: seeded_sequential_hare(None, _SEED),
              "tally must be a VoteTally, not NoneType$", 0),
        _case(lambda: seeded_sequential_hare(_TALLY, None),
              "seed must be a SeedDistribution, not NoneType"),
        _case(lambda: seeded_divisor(None, _SEED), "tally must be a VoteTally, not NoneType$", 1),
        _case(lambda: seeded_divisor(_TALLY, [1, 0]), "seed must be a SeedDistribution, not list"),
        _case(lambda: seeded_sequential_hare(_TALLY, _SEED, 1),
              "tie must be a TiePolicy, not int", 0),
        _case(lambda: seeded_divisor(_TALLY, _SEED, tie=1), "tie must be a TiePolicy, not int", 1),
        _case(lambda: seats_at_multiplier(None, 1),
              "tally must be a VoteTally, not NoneType$", 2),
    ],
)
def test_fixed_house_engines_refuse_the_wrong_domain_type(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_allocation_party_ids_and_seats_must_have_equal_length():
    with pytest.raises(InputError, match="^party_ids and seats must have equal length$"):
        Allocation(("A", "B"), (1,), 1, "hare", "largest-remainder")


def test_seeded_run_totals_must_be_district_plus_extra_seats():
    with pytest.raises(InputError, match=r"^totals must equal district_seats \+ extra_seats$"):
        SeededRun(("A",), (1,), (1,), (3,), 1, STOP_RESIDUAL, (Fraction(0),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TiePolicy(["random"]), "unknown tie mode ['random']"),
        (lambda: highest_averages(_TALLY, 3, ["dhondt"]), "unknown divisor method ['dhondt']"),
        (lambda: multiplicative(_TALLY, 3, ["floor"]), "unknown rounding rule ['floor']"),
        (lambda: jump_allocation(_TALLY, 3, ["hare"]), "unknown method ['hare']"),
        (lambda: find_quota_violation(InstanceSpace.default(trials=1), ["hare"]),
         "unknown method ['hare']"),
        (lambda: seeded_divisor(_TALLY, _SEED, stop=["fixed"]), "unknown stop rule ['fixed']"),
    ],
    ids=["tie-mode", "divisor-method", "rounding-rule", "method", "oracle-method", "stop-rule"],
)
def test_an_unknown_name_is_refused_though_unhashable(call, message):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


_QUOTAS = compute_quotas(VoteTally(("A", "B"), (3, 1)), 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _QUOTAS.residuals_for(None), "allocation must be an Allocation, not NoneType"),
        (lambda: VoteTally.from_pairs(5),
         "pairs must be an iterable of (party_id, votes) pairs"),
        (lambda: VoteTally.from_pairs([("A", 1, 2)]),
         "pairs must be an iterable of (party_id, votes) pairs"),
        (lambda: VoteTally(("A", "B"), (3, 1)).share(5), "party index 5 outside 0..1"),
        (lambda: VoteTally(("A", "B"), (3, 1)).share(-1), "party index -1 outside 0..1"),
        (lambda: VoteTally(("A", "B"), (3, 1)).share(1.0), "party index 1.0 outside 0..1"),
        (lambda: hare_niemeyer(VoteTally(("A", "B"), (3, 1)), 4).seat_of("Z"),
         "unknown party id 'Z'"),
        (lambda: InstanceSpace.default(trials=3).trial_instance(1.0),
         "trial index 1.0 outside 0..2"),
        (lambda: InstanceSpace.default(trials=3).trial_instance("1"),
         "trial index '1' outside 0..2"),
        (lambda: InstanceSpace.default(trials=3).trial_instance(True),
         "trial index True outside 0..2"),
        (lambda: SeededRun(("A",), 0, (1,), (1,), 1, STOP_RESIDUAL, (Fraction(0),)),
         "district_seats, extra_seats and totals must be tuples"),
        (lambda: SeededRun(("A",), (0,), 1, (1,), 1, STOP_RESIDUAL, (Fraction(0),)),
         "district_seats, extra_seats and totals must be tuples"),
        (lambda: SeededRun(("A",), ("x",), (1,), (1,), 1, STOP_RESIDUAL, (Fraction(0),)),
         "totals must equal district_seats + extra_seats"),
        (lambda: SuiteReport("equivalence", InstanceSpace.default(trials=1), 1, 1, 0),
         "trials_run and agreements must be non-negative integers and disagreements a tuple"),
        (lambda: SuiteReport("equivalence", InstanceSpace.default(trials=1), 1, "1"),
         "trials_run and agreements must be non-negative integers and disagreements a tuple"),
        (lambda: TiePolicy().ranks(None), "tally must be a VoteTally, not NoneType"),
    ],
    ids=["residuals-for", "from-pairs-int", "from-pairs-triple", "share-past-end",
         "share-negative", "share-float", "seat-of", "trial-float", "trial-str", "trial-bool",
         "seeded-districts", "seeded-extra", "seeded-district-str", "suite-disagreements",
         "suite-agreements", "tie-ranks"],
)
def test_a_method_or_constructor_refuses_a_raw_error_by_name(call, message):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("house_size", [1.0, True, Fraction(1), "1", None, -1])
def test_an_allocation_refuses_a_house_size_that_is_not_a_count(house_size):
    with pytest.raises(InputError) as refused:
        Allocation(("A",), (1,), house_size, "hare", "x")
    assert str(refused.value) == "house_size must be a non-negative integer"
