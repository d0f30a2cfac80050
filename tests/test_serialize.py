"""JSON round-trips: exact rationals in, byte-identical text out."""

import dataclasses
import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apportion import (
    DHONDT,
    SAINTE_LAGUE,
    SeedDistribution,
    TieEvent,
    TiePolicy,
    VoteTally,
    allocation_from_json,
    compute_quotas,
    dumps,
    hare_niemeyer,
    highest_averages,
    jsonify,
    multiplicative,
    quota_report_from_json,
    seeded_divisor,
    seeded_run_from_json,
    seeded_sequential_hare,
    sequential_hare,
    tally_from_json,
    trace_from_json,
)
from apportion import serialize
from apportion.serialize import from_json
from apportion.types import (
    AwardLog, DivisorSteps, InputError, MultiplierStep, SeatAward, SeatAwards, TraceTable,
)


def _reference_jsonify(value):
    """The recursive walk ``dumps`` replaced: domain values to plain data."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _reference_jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _reference_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, SeatAwards, DivisorSteps)):  # engine logs row by row
        return [_reference_jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot serialise {type(value).__name__} value {value!r}")


def _reference_dumps(payload):
    return json.dumps(_reference_jsonify(payload), sort_keys=True, indent=2) + "\n"


def _same_as_reference(value):
    text = dumps(value)
    assert text == _reference_dumps(value)
    assert jsonify(value) == json.loads(text) == _reference_jsonify(value)
    return text


def test_fractions_become_num_den_pairs():
    assert jsonify(Fraction(53, 6)) == {"num": 53, "den": 6}
    assert jsonify(Fraction(6, 4)) == {"num": 3, "den": 2}  # normalized
    assert jsonify(Fraction(-1, 5)) == {"num": -1, "den": 5}
    assert from_json(Fraction | None, None) is None


def test_plain_values_pass_through():
    payload = {"a": [1, "x", None, True], "b": (2, 3)}
    assert jsonify(payload) == {"a": [1, "x", None, True], "b": [2, 3]}


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        jsonify(0.5)
    with pytest.raises(TypeError):
        dumps({"share": 0.5})
    with pytest.raises(TypeError):
        jsonify({1, 2})


@pytest.mark.parametrize(
    "value", [{2: 0.5}, [(), frozenset()], SeatAward(1, 2, "A", 0.5), ({1},)]
)
def test_floats_and_sets_are_rejected_at_any_depth(value):
    with pytest.raises(TypeError, match="cannot serialise (float|set|frozenset) value"):
        dumps(value)
    with pytest.raises(TypeError, match="cannot serialise"):
        jsonify(value)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
    assert dumps({"a": 2, "b": 1}) == dumps({"b": 1, "a": 2})


@dataclasses.dataclass
class _Noted(dict):
    """A dataclass over a builtin: written as a dataclass, as jsonify did."""

    note: str | None = None


class _Count(int):
    """An int whose own repr is not its digits: written as the digits."""

    def __repr__(self):
        return "many"

    __str__ = __repr__


def _nest(depth):
    value = Fraction(-1, 3)
    for level in range(depth):
        value = [{"level": level, "next": value}] if level % 2 else (value, None)
    return value


_AWKWARD_IDS = ("Café", 'a"b', "c\\d", "tab\tnew\nline\x01\x7f", "☃", "\U0001f600", "")


@pytest.mark.parametrize(
    "value",
    [
        (),
        {},
        [(), {}, [[]], {"": {}}],
        {1: "one", 10: "ten", 2: "two", "b": None},
        {1: "int key", "1": "str key"},  # str() merges the keys: the last value wins
        {None: 0, True: 1, (1, 2): [3]},
        dict.fromkeys(_AWKWARD_IDS, 0),
        TieEvent("seat 1", _AWKWARD_IDS, _AWKWARD_IDS[:1]),
        VoteTally(_AWKWARD_IDS, tuple(range(1, 8))),
        TraceTable("multiplicative", "floor", (), (), ()),  # None fields
        MultiplierStep("start", Fraction(7), (), 0),  # an integral Fraction
        [Fraction(-7, 3), Fraction(0), Fraction(-5), Fraction(10**40, 3)],
        SeatAward(-1, 0, "", Fraction(-1, 10**30)),
        [True, False, None, 0, -1, 2**70, "", _Count(3), {_Count(4): _Count(5)}],
        _Noted(note="a note"),
        _nest(40),  # deeper than any report
        "bare string",
        None,
        Fraction(3, 4),
    ],
)
def test_dumps_matches_the_old_encoder(value):
    _same_as_reference(value)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts ints of any length",
)
@pytest.mark.parametrize(
    "big", [lambda n: n, lambda n: Fraction(n, 7), lambda n: {"x": [n]},
            lambda n: [[1, n, 2], (3,)]]
)
def test_dumps_refuses_ints_past_the_digit_limit(big):
    value = big(10 ** sys.get_int_max_str_digits())
    with pytest.raises(ValueError, match="integer string conversion"):
        dumps(value)


_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.fractions(max_denominator=10**6),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3) | st.integers(-3, 3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_PLAIN)
def test_dumps_matches_the_old_encoder_on_plain_data(value):
    _same_as_reference(value)


_THIRD = Fraction(7, 3)
_BIG = 10**20 + 1  # an int object of its own, not one of the cached small ints
_NAME = "shared name"


@pytest.mark.parametrize(
    "value",
    [
        [_THIRD, [_THIRD, [_THIRD, (_THIRD,)]], _THIRD],
        {"a": [_THIRD, _THIRD], "b": (_THIRD, {"c": [[_THIRD]]}), "d": _THIRD},
        [SeatAward(1, 2, _NAME, _THIRD), [_THIRD, SeatAward(3, _BIG, _NAME, _THIRD)]],
        [[_BIG, _NAME, _THIRD], {"x": [_BIG, [_NAME, _BIG]]}, (_BIG, _BIG), _NAME],
        TraceTable("divisor", "dhondt", (_NAME,), (), (_BIG,), _THIRD, True, _THIRD),
        [[_BIG, 3, _BIG], ([_BIG, [_BIG]], _BIG), {"n": [_NAME, "x", _NAME]}, [[_NAME]]],
    ],
    ids=["arrays", "objects", "dataclass-fields", "ints-and-strings", "trace-fields",
         "int-and-str-arrays"],
)
def test_a_shared_leaf_is_written_at_each_of_its_depths(value):
    _same_as_reference(value)


@pytest.mark.parametrize("method", [DHONDT, SAINTE_LAGUE])
@pytest.mark.parametrize("k, house", [(1, 40), (6, 300), (20, 300), (20, 0)])
def test_long_divisor_tables_match_the_old_encoder(method, k, house):
    votes = tuple(1_000 + 7_919 * i * i for i in range(k))
    allocation, trace = highest_averages(_tally(votes), house, method)
    _same_as_reference(trace)
    # the same shared quotas at three depths: in "steps" one level above
    # those in "trace", in "deeper" one level below
    _same_as_reference({"allocation": allocation, "deeper": [[trace.steps]],
                        "steps": trace.steps, "trace": trace})


@st.composite
def _shared_leaves(draw):
    """A ``_PLAIN``-style tree whose leaves are drawn, object for object, from
    a small pool, so one ``Fraction``, int or str sits at several places."""
    pool = draw(st.lists(
        st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30)
        | st.text(max_size=3),
        min_size=1, max_size=4,
    ))
    return draw(st.recursive(
        st.sampled_from(pool) | st.none() | st.booleans(),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3) | st.integers(-3, 3), inner, max_size=4),
        max_leaves=30,
    ))


@settings(max_examples=200, deadline=None)
@given(_shared_leaves())
def test_dumps_matches_the_old_encoder_on_shared_leaves(value):
    _same_as_reference(value)


def test_an_award_log_writes_as_its_plain_dict_did():
    _, awards = sequential_hare(VoteTally(("A", "B", "C"), (53, 24, 23)), 7)
    log = AwardLog("sequential", "hare", awards)
    assert dumps(log) == dumps({"form": "sequential", "method": "hare", "awards": awards})
    assert trace_from_json(jsonify(log)) == log


def test_from_json_refuses_what_it_cannot_decode():
    @dataclasses.dataclass(frozen=True)
    class Count:
        value: int

    @dataclasses.dataclass(frozen=True)
    class Name:
        value: str

    with pytest.raises(TypeError, match="cannot decode"):
        from_json(dict, {})
    with pytest.raises(TypeError, match="share their field names"):
        from_json(Count | Name, {"value": 1})


_TWO_SEATS = json.loads(dumps(hare_niemeyer(VoteTally(("A", "B"), (3, 1)), 2)))


@pytest.mark.parametrize(
    "decode,obj",
    [
        (allocation_from_json, {"x": 1}),
        (allocation_from_json, [1, 2]),
        (allocation_from_json, {**_TWO_SEATS, "extra": 1}),
        (lambda obj: from_json(Fraction | None, obj), {"num": 1, "den": 0}),
    ],
    ids=["missing-field", "list", "extra-key", "zero-denominator"],
)
def test_from_json_refuses_malformed_data_as_input_errors(decode, obj):
    with pytest.raises(InputError, match="malformed"):
        decode(obj)


def _reload(obj):
    return json.loads(dumps(obj))


def test_tally_round_trip(three_way):
    assert tally_from_json(_reload(three_way)) == three_way


def test_allocation_round_trip_keeps_tie_events(close_race):
    allocation = hare_niemeyer(close_race, 11, TiePolicy("random", 3))
    revived = allocation_from_json(_reload(allocation))
    assert revived == allocation
    assert revived.tie_events == allocation.tie_events


def test_quota_report_round_trip(three_way):
    report = compute_quotas(three_way, 10)
    revived = quota_report_from_json(_reload(report))
    assert revived == report
    assert revived.ideals[0] == Fraction(53, 10)


def test_divisor_trace_round_trip(three_way):
    _, trace = highest_averages(three_way, 6, "sainte-lague")
    assert trace_from_json(_reload(trace)) == trace


def test_multiplier_trace_round_trip(worked_example):
    _, trace = multiplicative(worked_example, 9, "floor")
    revived = trace_from_json(_reload(trace))
    assert revived == trace
    assert revived.witness == Fraction(10)
    assert revived.witness_is_exact is False


def test_sequential_run_round_trip():
    tally = VoteTally(("A", "B", "C"), (50, 30, 20))
    run = seeded_sequential_hare(tally, SeedDistribution(("A", "B", "C"), (3, 2, 0)))
    assert seeded_run_from_json(_reload(run)) == run


def test_divisor_run_round_trip_keeps_the_interval():
    tally = VoteTally(("A", "B"), (20, 80))
    run = seeded_divisor(tally, SeedDistribution(("A", "B"), (3, 1)))
    revived = seeded_run_from_json(_reload(run))
    assert revived == run
    assert revived.multiplier_interval == (Fraction(10), Fraction(45, 4))


def test_fixed_run_round_trip_with_tie():
    tally = VoteTally(("A", "B"), (10, 10))
    seed = SeedDistribution(("A", "B"), (0, 0), fixed_extra=1)
    run = seeded_divisor(tally, seed, stop="fixed")
    revived = seeded_run_from_json(_reload(run))
    assert revived == run
    assert revived.multiplier_interval is None
    assert revived.tie_events == (TieEvent("multiplier 2", ("A", "B"), ("A",)),)


# Votes 0..6 make coincident bids, and so tie events, common.
_VOTES = st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(any)
_TIES = st.one_of(
    st.just(TiePolicy()),
    st.integers(0, 2**64 - 1).map(lambda s: TiePolicy("random", s)),
)


def _tally(votes):
    return VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes))


def _round_trips(value, hint=None):
    hint = type(value) if hint is None else hint
    assert from_json(hint, json.loads(_same_as_reference(value))) == value


@settings(max_examples=60, deadline=None)
@given(votes=_VOTES, house=st.integers(0, 40), tie=_TIES)
@example(votes=[1, 1, 1], house=2, tie=TiePolicy())  # sweep lower + deassign rows
@example(votes=[3, 1], house=0, tie=TiePolicy())  # empty house: witness 0
def test_fixed_house_reports_round_trip(votes, house, tie):
    tally = _tally(votes)
    _round_trips(compute_quotas(tally, house))
    _round_trips(hare_niemeyer(tally, house, tie))
    allocation, awards = sequential_hare(tally, house, tie)
    _round_trips(allocation)
    _round_trips(awards, tuple[SeatAward, ...])
    for method in (DHONDT, SAINTE_LAGUE):
        for value in highest_averages(tally, house, method, tie):
            _round_trips(value)
    for rounding in ("floor", "nearest"):
        for value in multiplicative(tally, house, rounding, tie=tie):
            _round_trips(value)


@settings(max_examples=100, deadline=None)
@given(
    votes=_VOTES,
    districts=st.lists(st.integers(0, 5), min_size=5, max_size=5),
    rule=st.sampled_from(["residual", "cap", "fixed-extra", "fixed-stop"]),
    extra=st.integers(0, 12),
    cap=st.integers(0, 3),
    tie=_TIES,
)
def test_seeded_runs_round_trip(votes, districts, rule, extra, cap, tie):
    tally = _tally(votes)
    seed = SeedDistribution(
        tally.party_ids,
        tuple(d if v else 0 for v, d in zip(votes, districts)),  # no zero-vote overhang
        cap=cap if rule == "cap" else None,
        fixed_extra=extra if rule in ("fixed-extra", "fixed-stop") else None,
    )
    if rule != "fixed-stop":
        _round_trips(seeded_sequential_hare(tally, seed, tie))
    if rule in ("residual", "fixed-stop"):
        stop = "residual" if rule == "residual" else "fixed"
        for rounding in ("floor", "nearest"):
            _round_trips(seeded_divisor(tally, seed, rounding, stop, tie=tie))



def _per_item_dumps(value):
    """``dumps`` with the leaf path off: every item by its writer."""
    with mock.patch.object(serialize, "_LEAVES", {}):
        return dumps(value)


_HUGE = st.integers() | st.integers(-(10**300), 10**300)
_AWARDS = st.lists(st.builds(
    SeatAward, _HUGE, _HUGE, st.text(max_size=4),
    st.builds(Fraction, _HUGE, _HUGE.filter(bool)),
), max_size=6)


def _wrapped(awards, log, shapes):
    """``awards``, in an award log if ``log``, nested one level per shape."""
    value = AwardLog("sequential", "hare", tuple(awards)) if log else awards
    for shape in shapes:
        value = [value] if shape == "list" else {"awards": value, "n": 0}
    return value


@settings(max_examples=200, deadline=None)
@given(_AWARDS, st.booleans(), st.lists(st.sampled_from(["list", "dict"]), max_size=4))
def test_award_columns_match_the_per_item_writer(awards, log, shapes):
    value = _wrapped(awards, log, shapes)
    text = dumps(value)
    assert text == _per_item_dumps(value) == _reference_dumps(value)


@dataclasses.dataclass(frozen=True)
class _LookAlike:
    """The fields of a :class:`SeatAward` in another class."""

    iteration: int
    house_target: int
    party: str
    deficit: Fraction


class _Word(str):
    pass


class _Third(Fraction):
    pass


_AWARD = SeatAward(1, 12, "A", Fraction(-7, 3))


@pytest.mark.parametrize(
    "array",
    [
        [],
        (_AWARD,),
        [_AWARD, SeatAward(2, 13, "B", Fraction(10**40, 3))],
        [_AWARD, _LookAlike(2, 13, "B", Fraction(1, 3))],
        [_AWARD, TieEvent("seat 1", ("A", "B"), ("A",))],
        [_AWARD, 3],
        [_AWARD, SeatAward(True, 13, "B", Fraction(1, 3))],
        [_AWARD, SeatAward(2, 13, None, Fraction(1, 3))],
        [_AWARD, SeatAward(2, 13, "B", (1, 3))],
        [_AWARD, SeatAward(2, _Count(13), "B", Fraction(1, 3))],
        [_AWARD, SeatAward(2, 13, _Word("B"), Fraction(1, 3))],
        [_AWARD, SeatAward(2, 13, "B", _Third(1, 3))],
        [_AWARD, SeatAward(2, 13, "B", 1)],  # an int in a Fraction field
        [MultiplierStep("start", Fraction(7), (1,), 1)] * 2,
    ],
    ids=["empty", "one", "two", "look-alike", "other-class", "int-item", "bool",
         "none", "tuple", "int-subclass", "str-subclass", "fraction-subclass",
         "int-deficit", "not-flat"],
)
def test_arrays_that_cannot_take_the_columns_fall_back(array):
    for value in (array, {"awards": array}, [[array]]):
        assert dumps(value) == _per_item_dumps(value) == _reference_dumps(value)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts ints of any length",
)
def test_award_columns_refuse_ints_past_the_digit_limit():
    big = 10 ** sys.get_int_max_str_digits()
    for award in (SeatAward(big, 1, "A", Fraction(1)), SeatAward(1, 1, "A", Fraction(big, 7))):
        with pytest.raises(ValueError, match="integer string conversion"):
            dumps([_AWARD, award])


def _item_writers(array):
    """The classes whose writer ``dumps(array)`` asks for, the array's own
    class left out: none when the items are written by one ``map``."""
    asked = []
    writer = serialize._writer

    def spy(cls):
        asked.append(cls)
        return writer(cls)

    with mock.patch.object(serialize, "_writer", spy):
        dumps(array)
    return set(asked[1:])


@st.composite
def _leaf_arrays(draw):
    """Nested arrays of exact ints or of exact strs, whose items are drawn,
    object for object, from a small pool: one leaf sits at several depths."""
    ints = draw(st.lists(_HUGE, min_size=1, max_size=3))
    strs = draw(st.lists(st.text(max_size=4), min_size=1, max_size=3))
    return draw(st.recursive(
        st.lists(st.sampled_from(ints), max_size=5)
        | st.lists(st.sampled_from(strs), max_size=5).map(tuple),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=3),
        max_leaves=8,
    ))


@settings(max_examples=200, deadline=None)
@given(_leaf_arrays())
def test_int_and_str_arrays_match_the_per_item_writer(value):
    assert dumps(value) == _per_item_dumps(value) == _reference_dumps(value)


@pytest.mark.parametrize(
    "array, writers",
    [
        ([1, -2, 2**70, 0], set()),
        (("a", "Café", 'q"uote', ""), set()),
        ([[1, 2], [3], []], {list}),
        ([True, False], {bool}),
        ([1, True], {int, bool}),
        ([None, None], {type(None)}),
        (["a", None], {str, type(None)}),
        ([1, "a"], {int, str}),
        ([_Count(3), 4], {_Count, int}),
        ([_Count(3)], {_Count}),
        ([_Word("b"), "c"], {_Word, str}),
        ([_Word("b")], {_Word}),
    ],
    ids=["ints", "strs", "nested", "bools", "int-and-bool", "nones", "str-and-none",
         "int-and-str", "int-subclass", "int-subclass-only", "str-subclass",
         "str-subclass-only"],
)
def test_only_all_int_or_all_str_arrays_skip_the_item_writers(array, writers):
    assert _item_writers(array) == writers
    for value in (array, {"items": array}, [[array]]):
        assert dumps(value) == _per_item_dumps(value) == _reference_dumps(value)


def test_from_json_passes_a_dataclass_check_through_unchanged():
    two_seats_of_three = {**_TWO_SEATS, "seats": [2, 1]}
    with pytest.raises(InputError, match="^seats sum to 3, expected house size 2$"):
        allocation_from_json(two_seats_of_three)


_TRACE = jsonify(highest_averages(VoteTally(("A", "B"), (3, 1)), 2, "dhondt")[1])
_MULTIPLIER = jsonify(multiplicative(VoteTally(("A", "B"), (3, 1)), 2, "floor")[1])


def _with(obj, path, value):
    """A copy of the JSON data ``obj`` with the item at ``path`` set to ``value``."""
    obj = json.loads(json.dumps(obj))
    *inner, last = path
    target = obj
    for key in inner:
        target = target[key]
    target[last] = value
    return obj


@pytest.mark.parametrize(
    "decode, obj, message",
    [
        (trace_from_json, _with(_TRACE, ("steps", 0, "step"), 1.5), "expected int, got float"),
        (trace_from_json, _with(_TRACE, ("steps", 0, "step"), True), "expected int, got bool"),
        (trace_from_json, _with(_TRACE, ("steps", 0, "winner"), 1), "expected str, got int"),
        (trace_from_json, _with(_TRACE, ("steps", 0, "seats_before", 1), 0.0),
         "expected int, got float"),
        (trace_from_json, _with(_TRACE, ("party_ids", 0), None), "expected str, got NoneType"),
        (trace_from_json, _with(_MULTIPLIER, ("witness_is_exact",), 1),
         "expected bool, got int"),
        (trace_from_json, _with(_MULTIPLIER, ("witness", "num"), 2.0),
         "expected int, got float"),
        (allocation_from_json, _with(_TWO_SEATS, ("house_size",), 2.0),
         "expected int, got float"),
        (tally_from_json, {"party_ids": ["A"], "votes": ["1"]}, "expected int, got str"),
    ],
    ids=["step-float", "step-bool", "winner-int", "seats-item-float", "party-id-none",
         "exact-int", "witness-num-float", "house-float", "votes-item-str"],
)
def test_from_json_refuses_a_plain_field_of_another_type(decode, obj, message):
    with pytest.raises(InputError) as refused:
        decode(obj)
    assert str(refused.value).startswith("malformed ")
    assert str(refused.value).endswith(f"(TypeError: {message})")
