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

import hashlib
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .methods import (
    DHONDT,
    HARE,
    SAINTE_LAGUE,
    _check_house,
    hare_niemeyer,
    highest_averages,
    jump_allocation,
    multiplicative,
    sequential_hare,
)
from .types import (
    Allocation,
    EnumerationGuardError,
    InputError,
    SEEDED_RANDOM,
    TiePolicy,
    VoteTally,
    _is_count,
)

#: Hard ceiling on the number of seat vectors exhaustive enumeration may emit.
ENUMERATION_GUARD = 10**7


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
        if k == 1:
            yield (n,)
            return
        for first in range(n + 1):
            for rest in generate(k - 1, n - first):
                yield (first,) + rest

    return generate(party_count, house_size)


def check_quota_property(
    tally: VoteTally, house_size: int, allocation: Allocation
) -> tuple[bool, tuple[QuotaViolation, ...]]:
    """Does the allocation stay within every party's quota bounds?

    The bounds are recomputed here from raw integers, independently of
    :func:`apportion.methods.compute_quotas`.
    """
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
    if method == HARE:
        return hare_niemeyer(tally, house_size, tie)
    return jump_allocation(tally, house_size, method, tie)


def _equivalence_chunk(args):
    space, start, stop = args
    agreements = 0
    disagreements = []
    quota_ok = 0
    for index in range(start, stop):
        trial = space.trial_instance(index)
        tally, n, tie = trial.tally, trial.house_size, trial.tie
        lr = hare_niemeyer(tally, n, tie)
        seq, _ = sequential_hare(tally, n, tie, with_trace=False)
        dh_div, _ = highest_averages(tally, n, DHONDT, tie, with_trace=False)
        dh_mul, _ = multiplicative(tally, n, "floor", tie=tie, with_trace=False)
        sl_div, _ = highest_averages(tally, n, SAINTE_LAGUE, tie, with_trace=False)
        sl_mul, _ = multiplicative(tally, n, "nearest", tie=tie, with_trace=False)
        mismatches = []
        for label, left, right in (
            ("hare-forms", lr, seq),
            ("dhondt-forms", dh_div, dh_mul),
            ("sainte-lague-forms", sl_div, sl_mul),
        ):
            if left.seats != right.seats:
                mismatches.append(Mismatch(label, left.seats, right.seats))
        if mismatches:
            disagreements.append(Disagreement(trial, tuple(mismatches)))
        else:
            agreements += 1
        if check_quota_property(tally, n, lr)[0]:
            quota_ok += 1
    return agreements, disagreements, quota_ok


def _run_chunks(chunk, space: InstanceSpace, jobs: int) -> list:
    """``chunk((space, start, stop))`` over ``jobs`` slices of the trial range.

    Results come back in trial order; ``jobs`` > 1 runs the slices in
    worker processes, at most one per CPU, since the pool starts every worker at once.
    """
    if not _is_count(jobs) or jobs < 1:
        raise InputError("jobs must be a positive integer")
    trials = space.trials
    jobs = max(1, min(jobs, trials, os.cpu_count() or 1)) if trials else 1
    bounds = [i * trials // jobs for i in range(jobs + 1)]
    slices = [(space, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if jobs == 1:
        return [chunk(s) for s in slices]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(chunk, slices))


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
    agreements = 0
    disagreements = []
    quota_ok = 0
    for a, d, q in _run_chunks(_equivalence_chunk, space, jobs):
        agreements += a
        disagreements.extend(d)
        quota_ok += q
    return SuiteReport(
        suite="equivalence",
        space=space,
        trials_run=space.trials,
        agreements=agreements,
        disagreements=tuple(disagreements),
        stats={"trials": space.trials, "hare_quota_ok": quota_ok},
    )


def find_quota_violation(space: InstanceSpace, method: str = DHONDT):
    """Scan the space in trial order for an allocation outside quota bounds.

    Returns the earliest :class:`QuotaWitness`, or None if the whole space
    is clean (the expected outcome for Hare and, typically, a quick find
    for d'Hondt-Jefferson once one party dominates).
    """
    for index in range(space.trials):
        trial = space.trial_instance(index)
        allocation = _allocate(method, trial.tally, trial.house_size, trial.tie)
        ok, violations = check_quota_property(trial.tally, trial.house_size, allocation)
        if not ok:
            return QuotaWitness(trial, method, allocation.seats, violations)
    return None


def find_house_monotonicity_violation(space: InstanceSpace, method: str = HARE):
    """Scan for an Alabama paradox: growing the house costs a party a seat.

    Each trial compares the allocation at its house size N against N + 1
    under the same tie policy.  Divisor methods are house-monotone by
    construction, so searches with them are expected to come back empty;
    Hare is the interesting target.
    """
    for index in range(space.trials):
        trial = space.trial_instance(index)
        smaller = _allocate(method, trial.tally, trial.house_size, trial.tie)
        larger = _allocate(method, trial.tally, trial.house_size + 1, trial.tie)
        losers = tuple(
            pid
            for pid, a, b in zip(trial.tally.party_ids, smaller.seats, larger.seats)
            if b < a
        )
        if losers:
            return MonotonicityWitness(
                trial=trial,
                method=method,
                smaller_house=trial.house_size,
                seats_smaller=smaller.seats,
                seats_larger=larger.seats,
                losers=losers,
            )
    return None


def _bias_chunk(args):
    space, start, stop = args
    by_rank = {}
    largest = [Fraction(0), Fraction(0), Fraction(0)]
    for index in range(start, stop):
        trial = space.trial_instance(index)
        tally, n, tie = trial.tally, trial.house_size, trial.tie
        hare, dh, sl = (
            _allocate(m, tally, n, tie).seats for m in (HARE, DHONDT, SAINTE_LAGUE)
        )
        order = sorted(range(tally.party_count), key=lambda i: (-tally.votes[i], i))
        for rank, i in enumerate(order, start=1):
            count, sum_dh, sum_dsl = by_rank.get(rank, (0, 0, 0))
            by_rank[rank] = (
                count + 1,
                sum_dh + (dh[i] - hare[i]),
                sum_dsl + (dh[i] - sl[i]),
            )
        top = order[0]
        largest[0] += hare[top]
        largest[1] += dh[top]
        largest[2] += sl[top]
    return by_rank, largest


def bias_montecarlo(space: InstanceSpace, jobs: int = 1) -> SuiteReport:
    """Seat-advantage statistics of d'Hondt-Jefferson over Hare and
    Sainte-Laguë, by vote-share rank.

    Parties are ranked per trial by raw votes (descending, input order on
    ties); rank 1 is the largest party.  Reported means are exact
    rationals: ``mean_dhondt_minus_hare`` positive at rank 1 is the
    classic large-party advantage.  These are descriptive statistics, not
    assertions — the suite always reports, never fails.
    """
    by_rank = {}
    largest = [Fraction(0), Fraction(0), Fraction(0)]
    for rank_data, largest_part in _run_chunks(_bias_chunk, space, jobs):
        for rank, (count, sum_dh, sum_dsl) in rank_data.items():
            c0, d0, s0 = by_rank.get(rank, (0, 0, 0))
            by_rank[rank] = (c0 + count, d0 + sum_dh, s0 + sum_dsl)
        for i in range(3):
            largest[i] += largest_part[i]
    rank_stats = {
        str(rank): {
            "trials": count,
            "mean_dhondt_minus_hare": Fraction(sum_dh, count),
            "mean_dhondt_minus_sainte_lague": Fraction(sum_dsl, count),
        }
        for rank, (count, sum_dh, sum_dsl) in sorted(by_rank.items())
    }
    stats = {"trials": space.trials, "by_rank": rank_stats}
    if space.trials:
        stats["mean_seats_largest"] = {
            HARE: largest[0] / space.trials,
            DHONDT: largest[1] / space.trials,
            SAINTE_LAGUE: largest[2] / space.trials,
        }
    return SuiteReport(
        suite="bias",
        space=space,
        trials_run=space.trials,
        agreements=space.trials,
        disagreements=(),
        stats=stats,
    )
