"""Exact domain types shared by every allocation engine.

All fractional quantities — vote shares, ideal seat counts, residuals,
divisor bids, multipliers — are `fractions.Fraction` values built from
Python integers, so comparisons are exact and equal values are detected
reliably.  Nothing in this package goes through binary floating point.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "STOP_CAP", "STOP_FIXED", "STOP_RESIDUAL", "Allocation", "AwardLog",
    "EnumerationGuardError", "InputError", "IterationGuardError", "QuotaReport",
    "SeedDistribution", "SeededRun", "TieEvent", "TiePolicy", "TraceTable", "VoteTally",
]


class InputError(ValueError):
    """A tally, seed distribution, or run configuration is invalid."""


class EnumerationGuardError(InputError):
    """An exhaustive enumeration would exceed the configured size guard."""


class IterationGuardError(RuntimeError):
    """An open-ended loop passed its iteration guard without stopping.

    Raised instead of looping for hours when an adversarial input pushes a
    stop criterion astronomically far out (for example a party holding many
    first-stage seats on a microscopic vote share).
    """


DETERMINISTIC = "deterministic"
SEEDED_RANDOM = "random"
_TIE_MODES = (DETERMINISTIC, SEEDED_RANDOM)

# stop_reason values reported by the two-stage runs
STOP_RESIDUAL = "all-residuals-below-one"
STOP_CAP = "cap-reached"
STOP_FIXED = "fixed-extra-exhausted"


def _is_count(n) -> bool:
    """A non-negative int; bools are refused although ``True == 1``."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def _check_name(name, names, what):
    """Refuse ``name`` unless it is one of ``names``, compared by ``==`` so
    that an unhashable name is refused too."""
    if name not in tuple(names):
        raise InputError(f"unknown {what} {name!r}")


def _check_type(value, cls, name):
    """Refuse an entry point's argument ``name`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InputError(
            f"{name} must be {article} {cls.__name__}, not {type(value).__name__}"
        )


@dataclass(frozen=True)
class VoteTally:
    """Party identifiers with their raw vote counts.

    A tuple of opaque string identifiers, kept verbatim, and a tuple of
    non-negative integer votes, at least one positive.  Vote shares are
    exposed as exact rationals via :meth:`share`.
    """

    party_ids: tuple[str, ...]
    votes: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.party_ids, tuple) and isinstance(self.votes, tuple)):
            raise InputError("party_ids and votes must be tuples")
        if not self.party_ids:
            raise InputError("tally must contain at least one party")
        if len(self.party_ids) != len(self.votes):
            raise InputError("party_ids and votes must have equal length")
        if bad := [pid for pid in self.party_ids if not isinstance(pid, str)]:
            raise InputError(f"party id {bad[0]!r} is not a string")
        if len(set(self.party_ids)) != len(self.party_ids):
            raise InputError("duplicate party id in tally")
        for pid, v in zip(self.party_ids, self.votes):
            if not _is_count(v):
                raise InputError(f"party {pid!r}: votes must be a non-negative integer")
        if not any(self.votes):
            raise InputError("at least one party must have positive votes")

    @classmethod
    def from_pairs(cls, pairs) -> "VoteTally":
        try:
            pairs = [(pid, v) for pid, v in pairs]
        except (TypeError, ValueError):
            raise InputError("pairs must be an iterable of (party_id, votes) pairs") from None
        return cls(tuple(p for p, _ in pairs), tuple(v for _, v in pairs))

    @property
    def party_count(self) -> int:
        return len(self.party_ids)

    @property
    def total_votes(self) -> int:
        return sum(self.votes)

    def share(self, index: int) -> Fraction:
        """Exact vote share of the party at ``index``."""
        if not (_is_count(index) and index < len(self.votes)):
            raise InputError(f"party index {index!r} outside 0..{len(self.votes) - 1}")
        return Fraction(self.votes[index], self.total_votes)


@dataclass(frozen=True)
class TiePolicy:
    """Total order used wherever exact values compare equal.

    ``deterministic`` prefers the party with more raw votes, breaking
    remaining ties by input position.  ``random`` orders the parties by a
    pseudo-random permutation drawn once from ``rng_seed``; the permutation
    replaces the classical trick of nudging tied values by a tiny random
    epsilon, so runs stay exact and replayable.
    """

    mode: str = DETERMINISTIC
    rng_seed: int | None = None

    def __post_init__(self):
        _check_name(self.mode, _TIE_MODES, "tie mode")
        if self.mode == SEEDED_RANDOM and not _is_count(self.rng_seed):
            raise InputError("random tie policy requires a non-negative integer rng_seed")
        if self.mode == DETERMINISTIC and self.rng_seed is not None:
            raise InputError("rng_seed applies to the random tie policy only")

    def ranks(self, tally: VoteTally) -> tuple[int, ...]:
        """Tie rank per party index; the lower rank wins a tie."""
        _check_type(tally, VoteTally, "tally")
        k = tally.party_count
        if self.mode == DETERMINISTIC:
            return _ranks_of(sorted(range(k), key=lambda i: (-tally.votes[i], i)))
        return _random_ranks(self.rng_seed, k)


def _ranks_of(order) -> tuple[int, ...]:
    ranks = [0] * len(order)
    for position, index in enumerate(order):
        ranks[index] = position
    return tuple(ranks)


# A suite trial asks for the same random permutation once per engine it
# runs; a few entries cover that, and the bound keeps a long suite's
# distinct seeds from piling up.
@functools.lru_cache(maxsize=16)
def _random_ranks(seed: int, k: int) -> tuple[int, ...]:
    order = list(range(k))
    random.Random(seed).shuffle(order)
    return _ranks_of(order)


@dataclass(frozen=True)
class TieEvent:
    """Record of one tie: who was tied, and who the policy picked."""

    context: str
    tied: tuple[str, ...]
    winners: tuple[str, ...]

    def __post_init__(self):
        if not (isinstance(self.tied, tuple) and isinstance(self.winners, tuple)):
            raise InputError("tied and winners must be tuples")


@dataclass(frozen=True)
class QuotaReport:
    """Ideal seat counts and integer quota bounds for one house size.

    ``remainders[i]`` is the fractional part of the ideal count
    (``ideals[i] - lowers[i]``, always in [0, 1)).  ``ideal_quota`` is the
    votes-per-seat price ``V/N``, undefined for an empty house.
    """

    party_ids: tuple[str, ...]
    house_size: int
    ideals: tuple[Fraction, ...]
    lowers: tuple[int, ...]
    uppers: tuple[int, ...]
    remainders: tuple[Fraction, ...]
    ideal_quota: Fraction | None

    def residuals_for(self, allocation: "Allocation") -> tuple[Fraction, ...]:
        """Exact ideal-minus-assigned residual per party under ``allocation``."""
        _check_type(allocation, Allocation, "allocation")
        if allocation.party_ids != self.party_ids:
            raise InputError("allocation refers to a different party set")
        if allocation.house_size != self.house_size:
            raise InputError("allocation was computed for a different house size")
        return tuple(ideal - n for ideal, n in zip(self.ideals, allocation.seats))


@dataclass(frozen=True)
class Allocation:
    """A complete seat assignment: who got how many, and how."""

    party_ids: tuple[str, ...]
    seats: tuple[int, ...]
    house_size: int
    method: str
    form: str
    tie_events: tuple[TieEvent, ...] = ()

    def __post_init__(self):
        if not (isinstance(self.party_ids, tuple) and isinstance(self.seats, tuple)
                and isinstance(self.tie_events, tuple)):
            raise InputError("party_ids, seats and tie_events must be tuples")
        if len(self.party_ids) != len(self.seats):
            raise InputError("party_ids and seats must have equal length")
        if not all(map(_is_count, self.seats)):
            raise InputError("seat counts must be non-negative integers")
        if not _is_count(self.house_size):
            raise InputError("house_size must be a non-negative integer")
        if sum(self.seats) != self.house_size:
            raise InputError(
                f"seats sum to {sum(self.seats)}, expected house size {self.house_size}"
            )

    def seat_of(self, party_id: str) -> int:
        _check_name(party_id, self.party_ids, "party id")
        return self.seats[self.party_ids.index(party_id)]


@dataclass(frozen=True)
class DivisorStep:
    """State of the bidding table just before one seat is handed out.

    ``present_quota[i]`` is the votes-per-seat price at which party ``i``
    won its most recent seat (``None`` while seatless); ``next_quota[i]``
    is its standing bid for the next seat.  Consecutive rows may share the
    same immutable ``Fraction`` objects; values and equality are unchanged.
    """

    step: int
    seats_before: tuple[int, ...]
    present_quota: tuple[Fraction | None, ...]
    next_quota: tuple[Fraction, ...]
    winner: str


@dataclass(frozen=True)
class MultiplierStep:
    """One probe of the multiplier search: M, the seats it implies, their sum."""

    action: str  # "start" | "raise" | "lower" | "deassign"
    multiplier: Fraction
    seats: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class TraceTable:
    """Step-by-step account of a divisor-table or multiplier run.

    For multiplicative runs, ``witness`` is a multiplier under which the
    rounded per-party counts sum exactly to the house size.
    ``witness_is_exact`` flips to False when a tie forced de-assignment:
    the witness multiplier then over-fills the house before the policy
    strips the surplus.  ``implied_quota`` converts the witness to the
    votes-per-seat scale when the rounding rule has a standard one
    (``V/M`` for floor rounding, ``V/(2M)`` for nearest rounding).
    """

    form: str
    method: str
    party_ids: tuple[str, ...]
    steps: tuple[DivisorStep | MultiplierStep, ...]
    final_seats: tuple[int, ...]
    witness: Fraction | None = None
    witness_is_exact: bool = True
    implied_quota: Fraction | None = None


@dataclass(frozen=True)
class SeedDistribution:
    """First-stage (district) seats to be topped up toward proportionality.

    ``cap`` bounds the number of top-up seats in the residual-stop
    sequential run; ``fixed_extra`` demands an exact number of top-up
    seats instead.  The two are mutually exclusive.
    """

    party_ids: tuple[str, ...]
    district_seats: tuple[int, ...]
    cap: int | None = None
    fixed_extra: int | None = None

    def __post_init__(self):
        if not all(isinstance(f, tuple) for f in (self.party_ids, self.district_seats)):
            raise InputError("party_ids and district_seats must be tuples")
        if len(self.party_ids) != len(self.district_seats):
            raise InputError("party_ids and district_seats must have equal length")
        for pid, d in zip(self.party_ids, self.district_seats):
            if not _is_count(d):
                raise InputError(
                    f"party {pid!r}: district seats must be a non-negative integer"
                )
        for name in ("cap", "fixed_extra"):
            value = getattr(self, name)
            if value is not None and not _is_count(value):
                raise InputError(f"{name} must be None or a non-negative integer")
        if self.cap is not None and self.fixed_extra is not None:
            raise InputError("cap and fixed_extra are mutually exclusive")

    @property
    def total(self) -> int:
        return sum(self.district_seats)


@dataclass(frozen=True)
class SeatAward:
    """One top-up seat granted to the party with the largest deficit."""

    iteration: int
    house_target: int
    party: str
    deficit: Fraction


@dataclass(frozen=True)
class AwardLog:
    """The trace of a sequential Hare run: one award per seat, in order."""

    form: str
    method: str
    awards: tuple[SeatAward, ...]


@dataclass(frozen=True)
class SweepStep:
    """Multiplier-sweep snapshot: M and the extra seats it implies."""

    multiplier: Fraction
    extra_seats: tuple[int, ...]
    total_extra: int


@dataclass(frozen=True)
class SeededRun:
    """Outcome of a two-stage run: district seats plus proportional top-up.

    ``stop_iteration`` is the number of top-up seats awarded.
    ``residuals`` are the ideal-minus-assigned gaps at the stopping point
    (for multiplier runs, evaluated at ``multiplier``).
    ``multiplier_interval``, when set, is one bracket of multipliers
    consistent with the reported seats: every M strictly inside it yields
    the same top-up counts, and the reported ``multiplier`` itself also
    does unless a tie forced de-assignment (then ``tie_events`` is
    non-empty and the interval is dropped).
    """

    party_ids: tuple[str, ...]
    district_seats: tuple[int, ...]
    extra_seats: tuple[int, ...]
    totals: tuple[int, ...]
    stop_iteration: int
    stop_reason: str
    residuals: tuple[Fraction, ...]
    awards: tuple[SeatAward, ...] = ()
    sweep: tuple[SweepStep, ...] = ()
    multiplier: Fraction | None = None
    multiplier_interval: tuple[Fraction, Fraction] | None = None
    tie_events: tuple[TieEvent, ...] = ()

    def __post_init__(self):
        seats = (self.district_seats, self.extra_seats, self.totals)
        if not all(isinstance(field, tuple) for field in seats):
            raise InputError("district_seats, extra_seats and totals must be tuples")
        if not all(map(_is_count, self.extra_seats + self.totals)):
            raise InputError("extra seats and totals must be non-negative integers")
        # counts on the left only, so no district value can make it raise
        if tuple(map(operator.sub, self.totals, self.extra_seats)) != self.district_seats:
            raise InputError("totals must equal district_seats + extra_seats")

    @property
    def house_size(self) -> int:
        return sum(self.totals)
