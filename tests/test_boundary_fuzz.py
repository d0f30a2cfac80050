"""Adversarial arguments at the library boundary: every name in
``apportion.__all__`` that can be called, and the public methods of its
types, either return or raise one of the package's own errors."""

import contextlib
import dataclasses
import inspect
import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import apportion
from apportion import (
    InputError,
    InstanceSpace,
    IterationGuardError,
    SeedDistribution,
    TiePolicy,
    VoteTally,
    dumps,
    hare_niemeyer,
    jsonify,
    methods,
    oracle,
    seeded,
)

CALLABLES = [getattr(apportion, name) for name in apportion.__all__
             if callable(getattr(apportion, name))]

NAMES = st.sampled_from(["hare", "dhondt", "sainte-lague", "floor", "nearest", "residual",
                         "fixed", "random", "deterministic", "P0", "P1", "Z"])
INTS = st.one_of(st.integers(-2, 12),
                 st.sampled_from([10**12, 2**64, 10**40, -(10**40), 10**6 + 1]))
SCALARS = st.one_of(INTS, st.booleans(), st.none(), st.floats(), NAMES, st.text(max_size=2),
                    st.fractions(-3, 3, max_denominator=4))
COUNTS = st.one_of(st.integers(0, 12), st.sampled_from([10**12, 10**40]))
#: Tallies of parties P0, P1, ..., so that one drawn independently of a
#: seed or an allocation often names the same parties.
TALLIES = st.lists(COUNTS, min_size=1, max_size=4).filter(any).map(
    lambda votes: VoteTally(tuple(f"P{i}" for i in range(len(votes))), tuple(votes)))
TIES = st.one_of(st.just(TiePolicy()),
                 st.integers(0, 2**64).map(lambda seed: TiePolicy("random", seed)))
SEEDS = st.builds(
    lambda districts, stops: SeedDistribution(
        tuple(f"P{i}" for i in range(len(districts))), tuple(districts), *stops),
    st.lists(COUNTS, min_size=1, max_size=4),
    st.tuples(st.none(), st.none()) | st.tuples(COUNTS, st.none())
    | st.tuples(st.none(), COUNTS))
ALLOCATIONS = st.builds(hare_niemeyer, TALLIES, st.integers(0, 30), TIES)
#: Ranges stay small in the party count: a trial draws one vote per party,
#: up to ``oracle.MAX_PARTIES``.
RANGES = st.one_of(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                   st.tuples(st.integers(0, 3), INTS), SCALARS, st.lists(INTS, max_size=3))
PAIRS = st.tuples(COUNTS, COUNTS).map(sorted).map(tuple)
SPACES = st.builds(InstanceSpace, st.tuples(st.integers(1, 3), st.integers(3, 6)),
                   PAIRS.filter(lambda pair: pair[1] > 0), PAIRS, st.integers(0, 25), COUNTS)
DOMAIN = st.one_of(TALLIES, TIES, SEEDS, ALLOCATIONS, SPACES)
#: Malformed JSON: plain data keyed by the domain types' own field names.
KEYS = st.sampled_from(sorted({field.name for name in apportion.__all__
                               if dataclasses.is_dataclass(getattr(apportion, name))
                               for field in dataclasses.fields(getattr(apportion, name))}
                              | {"num", "den"}))
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, st.floats(), NAMES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=12)
ANYTHING = st.one_of(SCALARS, DOMAIN, JSON, DOMAIN.map(jsonify),
                     st.tuples(SCALARS, SCALARS), st.lists(SCALARS, max_size=3).map(tuple))

#: Arguments by parameter name: the valid kind mixed with anything at all.
#: ``jobs`` is 1 or invalid, so no worker pool ever starts.
BY_NAME = {
    "tally": TALLIES | ANYTHING, "tie": TIES | ANYTHING, "seed": SEEDS | ANYTHING,
    "allocation": ALLOCATIONS | ANYTHING, "space": SPACES | ANYTHING,
    "house_size": COUNTS | ANYTHING, "party_count": COUNTS | ANYTHING,
    "method": NAMES | ANYTHING, "rounding": NAMES | ANYTHING, "stop": NAMES | ANYTHING,
    "mode": NAMES | ANYTHING, "multiplier": st.fractions(0, 40) | ANYTHING,
    "round_threshold": st.none() | st.fractions(0, 1, max_denominator=6) | ANYTHING,
    "with_trace": st.booleans() | ANYTHING, "obj": DOMAIN.map(jsonify) | JSON,
    "jobs": st.sampled_from([1, 0, -1, 1.5, True, "2", None, -(10**40)]),
    "parties": RANGES, "votes": st.lists(COUNTS, max_size=4).map(tuple) | RANGES,
    "house": RANGES, "party_ids": st.lists(NAMES, max_size=4).map(tuple) | ANYTHING,
}
#: The public methods of the types, each on a valid instance.
METHOD_CALLS = [
    (st.just(VoteTally), "from_pairs"), (TALLIES, "share"), (TIES, "ranks"),
    (ALLOCATIONS, "seat_of"), (st.builds(apportion.compute_quotas, TALLIES, COUNTS),
                               "residuals_for"),
    (st.just(InstanceSpace), "default"), (SPACES, "trial_instance"),
]


@st.composite
def arguments(draw, fn):
    """Positional and keyword arguments for ``fn``: every required parameter,
    and a drawn share of the optional ones."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class: any positional arguments
        return draw(st.lists(ANYTHING, max_size=2)), {}
    args, kwargs, by_keyword = [], {}, False
    for param in params:
        value = BY_NAME.get(param.name, ANYTHING)
        if param.kind is param.VAR_POSITIONAL:
            args += draw(st.lists(value, max_size=2))
        elif param.kind is param.VAR_KEYWORD:
            continue
        elif param.default is param.empty or draw(st.booleans()):
            if param.kind is param.KEYWORD_ONLY or by_keyword:
                kwargs[param.name] = draw(value)
            else:
                args.append(draw(value))
        else:  # a positional parameter left out: those after it go by keyword
            by_keyword = True
    return args, kwargs


def _call(fn, args, kwargs):
    """``fn(*args, **kwargs)``, with a returned generator drawn from; an
    exception not allowed at the boundary propagates."""
    try:
        result = fn(*args, **kwargs)
        if inspect.isgenerator(result):
            result = list(itertools.islice(result, 20))
    except (InputError, IterationGuardError):
        return None
    except TypeError:
        if fn in (dumps, jsonify):
            return None
        raise
    return result


def _low_guards():
    """The guards patched low, so that each example stays small."""
    return [mock.patch.object(oracle, "MAX_TRIALS", 20),
            mock.patch.object(oracle, "ENUMERATION_GUARD", 1000),
            mock.patch.object(methods, "MAX_TRACE_ROWS", 200),
            mock.patch.object(methods, "MAX_LOOP_SEATS", 300),
            mock.patch.object(seeded, "MAX_TOPUP_ITERATIONS", 300)]


FUZZ = settings(max_examples=500, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(st.data())
def test_every_public_callable_raises_only_the_package_errors(data):
    fn = data.draw(st.sampled_from(CALLABLES))
    args, kwargs = data.draw(arguments(fn))
    with contextlib.ExitStack() as stack:
        for patch in _low_guards():
            stack.enter_context(patch)
        result = _call(fn, args, kwargs)
        if result is not None and inspect.isfunction(fn):
            dumps(result)  # what a function returns is exact: it serialises


@FUZZ
@given(st.data())
def test_every_public_method_of_the_types_raises_only_the_package_errors(data):
    instances, name = data.draw(st.sampled_from(METHOD_CALLS))
    method = getattr(data.draw(instances), name)
    args, kwargs = data.draw(arguments(method))
    with contextlib.ExitStack() as stack:
        for patch in _low_guards():
            stack.enter_context(patch)
        result = _call(method, args, kwargs)
        if result is not None:
            dumps(result)


@FUZZ
@given(ALLOCATIONS, st.data())
def test_an_allocation_of_any_house_size_is_refused_or_serialises(allocation, data):
    n = allocation.house_size
    house_size = data.draw(st.sampled_from([float(n), n == 1, Fraction(n), str(n), -n])
                           | ANYTHING)
    try:
        rebuilt = dataclasses.replace(allocation, house_size=house_size)
    except InputError:
        return
    dumps(rebuilt)
