"""Brute-force checks, cross-form equivalence suites, pathology searches.

Everything here treats the allocation engines as black boxes and checks
them from the outside: exhaustive enumeration of seat vectors, the quota
property, form-vs-form agreement over large random instance families,
known paradox searches, and Monte Carlo bias statistics (exact rational
means — the randomness is only in the sampled instances).

Instance generation is pinned so suites are reproducible and independent
of Python's global RNG state: trial ``i`` of a space seeds
``random.Random`` with the first 8 bytes (big-endian) of
``sha256("{master_seed}:{i}")``.  From that stream, in order: the party
count (uniform over the party range), each party's votes (uniform over
the vote range), a redraw of one uniformly-chosen party from the positive
part of the range if every draw came up zero, the house size (uniform
over the house range), and a 64-bit seed for the trial's random-mode tie
policy.  Party ids are "P1", "P2", ...  Identical master seeds therefore
give identical suites, serial or parallel.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .methods import (
    DHONDT,
    HARE,
    METHODS,
    SAINTE_LAGUE,
    _ROUNDING,
    _check_house,
    _check_type,
    hare_niemeyer,
    highest_averages,
    multiplicative,
    sequential_hare,
)
from .types import (
    Allocation,
    EnumerationGuardError,
    InputError,
    IterationGuardError,
    SEEDED_RANDOM,
    TiePolicy,
    VoteTally,
    _check_name,
    _is_count,
)

__all__ = [
    "InstanceSpace", "SuiteReport", "bias_montecarlo", "check_quota_property",
    "enumerate_allocations", "equivalence_suite", "find_house_monotonicity_violation",
    "find_quota_violation",
]

#: Hard ceiling on the number of seat vectors exhaustive enumeration may emit.
ENUMERATION_GUARD = 10**7

#: Hard ceiling on the trials of one suite or search, checked before the first.
MAX_TRIALS = 10**7


@dataclass(frozen=True)
class InstanceSpace:
    """A reproducible family of random allocation instances.

    Ranges are inclusive ``(lo, hi)`` pairs.  The same ``master_seed``
    always regenerates the same instances, one per trial index.
    """

    parties: tuple[int, int]
    votes: tuple[int, int]
    house: tuple[int, int]
    trials: int
    master_seed: int

    def __post_init__(self):
        for name in ("parties", "votes", "house"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise InputError(f"{name} range must be a (lo, hi) pair, got {pair!r}")
            lo, hi = pair
            if not (_is_count(lo) and _is_count(hi)):
                raise InputError(f"{name} range bounds must be non-negative integers")
            if lo > hi:
                raise InputError(f"empty {name} range ({lo}, {hi})")
        if self.parties[0] < 1:
            raise InputError("party range must start at 1 or above")
        if self.votes[1] < 1:
            raise InputError("vote range must allow a positive draw")
        for name in ("trials", "master_seed"):
            if not _is_count(getattr(self, name)):
                raise InputError(f"{name} must be a non-negative integer")

    @classmethod
    def default(cls, trials: int = 10_000, master_seed: int = 0) -> "InstanceSpace":
        return cls(parties=(2, 8), votes=(0, 10**6), house=(1, 200),
                   trials=trials, master_seed=master_seed)

    def trial_instance(self, index: int) -> "TrialInstance":
        if not 0 <= index < self.trials:
            raise InputError(f"trial index {index} outside 0..{self.trials - 1}")
        import hashlib  # loaded here, not at start-up: only suites use it
        digest = hashlib.sha256(f"{self.master_seed}:{index}".encode("ascii")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        k = rng.randint(*self.parties)
        votes = [rng.randint(*self.votes) for _ in range(k)]
        if not any(votes):
            votes[rng.randrange(k)] = rng.randint(max(1, self.votes[0]), self.votes[1])
        house_size = rng.randint(*self.house)
        tie_seed = rng.getrandbits(64)
        tally = VoteTally(tuple(f"P{i + 1}" for i in range(k)), tuple(votes))
        return TrialInstance(
            index=index,
            tally=tally,
            house_size=house_size,
            tie=TiePolicy(SEEDED_RANDOM, tie_seed),
        )


@dataclass(frozen=True)
class TrialInstance:
    index: int
    tally: VoteTally
    house_size: int
    tie: TiePolicy


@dataclass(frozen=True)
class Mismatch:
    """Two forms of one method produced different seat vectors."""

    comparison: str
    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class Disagreement:
    trial: TrialInstance
    mismatches: tuple[Mismatch, ...]


@dataclass(frozen=True)
class QuotaViolation:
    party: str
    seats: int
    lower: int
    upper: int


@dataclass(frozen=True)
class QuotaWitness:
    trial: TrialInstance
    method: str
    seats: tuple[int, ...]
    violations: tuple[QuotaViolation, ...]


@dataclass(frozen=True)
class MonotonicityWitness:
    """A house grew by one seat and some party lost one (Alabama paradox)."""

    trial: TrialInstance
    method: str
    smaller_house: int
    seats_smaller: tuple[int, ...]
    seats_larger: tuple[int, ...]
    losers: tuple[str, ...]


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run over an instance space."""

    suite: str
    space: InstanceSpace
    trials_run: int
    agreements: int
    disagreements: tuple[Disagreement, ...] = ()
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.agreements + len(self.disagreements) != self.trials_run:
            raise InputError("agreements and disagreements must cover every trial")


def enumerate_allocations(party_count: int, house_size: int):
    """Yield every seat vector of ``party_count`` non-negatives summing to
    ``house_size``, in lexicographic order.

    The count is ``C(house_size + party_count - 1, party_count - 1)``;
    anything above :data:`ENUMERATION_GUARD` is refused up front.
    """
    if not _is_count(party_count) or party_count < 1:
        raise InputError("party count must be a positive integer")
    _check_house(house_size)
    size = math.comb(house_size + party_count - 1, party_count - 1)
    if size > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"enumeration would emit {size} seat vectors (guard {ENUMERATION_GUARD})"
        )

    def generate(k, n):
        # The successor of a vector: the rightmost party r > 0 holding a seat
        # gives one to party r - 1 and the rest to the last party.
        seats = [0] * k
        seats[-1] = n
        r = k - 1 if n else 0
        yield tuple(seats)
        while r:
            rest = seats[r] - 1
            seats[r] = 0
            seats[r - 1] += 1
            seats[-1] = rest
            r = k - 1 if rest else r - 1
            yield tuple(seats)

    return generate(party_count, house_size)


def check_quota_property(
    tally: VoteTally, house_size: int, allocation: Allocation
) -> tuple[bool, tuple[QuotaViolation, ...]]:
    """Does the allocation stay within every party's quota bounds?

    The bounds are recomputed here from raw integers, independently of
    :func:`apportion.methods.compute_quotas`.
    """
    _check_type(tally, VoteTally, "tally")
    _check_type(allocation, Allocation, "allocation")
    if allocation.party_ids != tally.party_ids:
        raise InputError("allocation refers to a different party set")
    _check_house(house_size)
    if allocation.house_size != house_size:
        raise InputError("allocation was computed for a different house size")
    total = tally.total_votes
    violations = []
    for pid, v, n in zip(tally.party_ids, tally.votes, allocation.seats):
        lower, rem = divmod(house_size * v, total)
        upper = lower if rem == 0 else lower + 1
        if not lower <= n <= upper:
            violations.append(QuotaViolation(pid, n, lower, upper))
    return (not violations, tuple(violations))


def _allocate(method: str, tally, house_size, tie):
    """An allocation whose seats are ``method``'s; its callers read no tie
    event, so the divisor methods take the untraced sweep's seats (the
    jump's, without rebuilding its tie events)."""
    if method == HARE:
        return hare_niemeyer(tally, house_size, tie)
    return multiplicative(tally, house_size, _ROUNDING[method], tie=tie, with_trace=False)[0]


def _equivalence_trial(trial):
    """``(Disagreement or None, Hare within quota)`` for one trial."""
    tally, n, tie = trial.tally, trial.house_size, trial.tie
    lr = hare_niemeyer(tally, n, tie)
    seq, _ = sequential_hare(tally, n, tie, with_trace=False)
    dh_div, _ = highest_averages(tally, n, DHONDT, tie, with_trace=False)
    dh_mul, _ = multiplicative(tally, n, "floor", tie=tie, with_trace=False)
    sl_div, _ = highest_averages(tally, n, SAINTE_LAGUE, tie, with_trace=False)
    sl_mul, _ = multiplicative(tally, n, "nearest", tie=tie, with_trace=False)
    mismatches = tuple(
        Mismatch(label, left.seats, right.seats)
        for label, left, right in (
            ("hare-forms", lr, seq),
            ("dhondt-forms", dh_div, dh_mul),
            ("sainte-lague-forms", sl_div, sl_mul),
        )
        if left.seats != right.seats
    )
    disagreement = Disagreement(trial, mismatches) if mismatches else None
    return disagreement, check_quota_property(tally, n, lr)[0]


def _trial_slice(args):
    per_trial, space, start, stop = args
    return [per_trial(space.trial_instance(index)) for index in range(start, stop)]


def _trial_count(space) -> int:
    """The trials of ``space``, refused before any is drawn when it is not an
    :class:`InstanceSpace` or holds more than :data:`MAX_TRIALS`."""
    _check_type(space, InstanceSpace, "space")
    if space.trials > MAX_TRIALS:
        raise IterationGuardError(
            f"the suite would run {space.trials} trials (limit {MAX_TRIALS})"
        )
    return space.trials


def _map_trials(per_trial, space: InstanceSpace, jobs: int) -> list:
    """``per_trial(trial)`` for every trial of the space, in trial order.

    ``jobs`` > 1 runs slices of the trial range in worker processes, at
    most one per CPU, since the pool starts every worker at once; the
    workers unpickle ``per_trial``, so it is a module-level function.
    """
    trials = _trial_count(space)
    if not _is_count(jobs) or jobs < 1:
        raise InputError("jobs must be a positive integer")
    jobs = max(1, min(jobs, trials, os.cpu_count() or 1)) if trials else 1
    if jobs == 1:
        return _trial_slice((per_trial, space, 0, trials))
    bounds = [i * trials // jobs for i in range(jobs + 1)]
    slices = [(per_trial, space, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # loaded here, not at start-up: only jobs > 1 needs the pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [result for part in pool.map(_trial_slice, slices) for result in part]


def _first_witness(space, method, witness):
    """The first ``witness(trial, method)`` that is not None, in trial order,
    or None; the space and the method are checked before any trial is drawn."""
    trials = _trial_count(space)
    _check_name(method, METHODS, "method")
    found = (witness(space.trial_instance(index), method) for index in range(trials))
    return next((w for w in found if w is not None), None)


def equivalence_suite(space: InstanceSpace, jobs: int = 1) -> SuiteReport:
    """Check, over the whole space, that every method's two forms agree.

    Per trial, three comparisons run under one shared random tie policy:
    largest-remainder vs sequential Hare, divisor vs multiplicative
    d'Hondt-Jefferson, and divisor vs multiplicative Sainte-Laguë.  A
    trial agrees when all three match.  ``stats["hare_quota_ok"]`` counts
    trials whose Hare allocation stayed within quota (expected: all).

    ``jobs`` > 1 splits the trial range over worker processes; the merged
    report is identical to a serial run.
    """
    results = _map_trials(_equivalence_trial, space, jobs)
    disagreements = tuple(d for d, _ in results if d is not None)
    return SuiteReport(
        suite="equivalence",
        space=space,
        trials_run=space.trials,
        agreements=space.trials - len(disagreements),
        disagreements=disagreements,
        stats={"trials": space.trials, "hare_quota_ok": sum(ok for _, ok in results)},
    )


def find_quota_violation(space: InstanceSpace, method: str = DHONDT):
    """Scan the space in trial order for an allocation outside quota bounds.

    Returns the earliest :class:`QuotaWitness`, or None if the whole space
    is clean (the expected outcome for Hare and, typically, a quick find
    for d'Hondt-Jefferson once one party dominates).
    """
    return _first_witness(space, method, _quota_witness)


def _quota_witness(trial, method):
    allocation = _allocate(method, trial.tally, trial.house_size, trial.tie)
    ok, violations = check_quota_property(trial.tally, trial.house_size, allocation)
    return None if ok else QuotaWitness(trial, method, allocation.seats, violations)


def find_house_monotonicity_violation(space: InstanceSpace, method: str = HARE):
    """Scan for an Alabama paradox: growing the house costs a party a seat.

    Each trial compares the allocation at its house size N against N + 1
    under the same tie policy.  Divisor methods are house-monotone by
    construction, so searches with them are expected to come back empty;
    Hare is the interesting target.
    """
    return _first_witness(space, method, _monotonicity_witness)


def _monotonicity_witness(trial, method):
    tally, n, tie = trial.tally, trial.house_size, trial.tie
    smaller, larger = (_allocate(method, tally, house, tie).seats for house in (n, n + 1))
    losers = tuple(pid for pid, a, b in zip(tally.party_ids, smaller, larger) if b < a)
    return MonotonicityWitness(trial, method, n, smaller, larger, losers) if losers else None


def _bias_trial(trial):
    """``(hare, dhondt, sainte-lague)`` seats of each party, largest first."""
    tally = trial.tally
    by_method = [
        _allocate(m, tally, trial.house_size, trial.tie).seats
        for m in (HARE, DHONDT, SAINTE_LAGUE)
    ]
    order = sorted(range(tally.party_count), key=lambda i: (-tally.votes[i], i))
    return [tuple(seats[i] for seats in by_method) for i in order]


def bias_montecarlo(space: InstanceSpace, jobs: int = 1) -> SuiteReport:
    """Seat-advantage statistics of d'Hondt-Jefferson over Hare and
    Sainte-Laguë, by vote-share rank.

    Parties are ranked per trial by raw votes (descending, input order on
    ties); rank 1 is the largest party.  Reported means are exact
    rationals: ``mean_dhondt_minus_hare`` positive at rank 1 is the
    classic large-party advantage.  These are descriptive statistics, not
    assertions — the suite always reports, never fails.
    """
    totals = {}  # rank -> (trials, hare, dhondt, sainte-lague seats summed)
    for ranked in _map_trials(_bias_trial, space, jobs):
        for rank, (h, d, s) in enumerate(ranked, start=1):
            count, hare, dh, sl = totals.get(rank, (0, 0, 0, 0))
            totals[rank] = (count + 1, hare + h, dh + d, sl + s)
    rank_stats = {
        str(rank): {
            "trials": count,
            "mean_dhondt_minus_hare": Fraction(dh - hare, count),
            "mean_dhondt_minus_sainte_lague": Fraction(dh - sl, count),
        }
        for rank, (count, hare, dh, sl) in sorted(totals.items())
    }
    stats = {"trials": space.trials, "by_rank": rank_stats}
    if space.trials:  # rank 1 is each trial's largest party
        count, *sums = totals[1]
        methods = (HARE, DHONDT, SAINTE_LAGUE)
        stats["mean_seats_largest"] = {m: Fraction(s, count) for m, s in zip(methods, sums)}
    return SuiteReport(
        suite="bias",
        space=space,
        trials_run=space.trials,
        agreements=space.trials,
        disagreements=(),
        stats=stats,
    )
