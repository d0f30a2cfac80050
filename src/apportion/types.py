"""Exact domain types shared by every allocation engine, and the table text
of exact values and columns (``_fmt``, ``_ratio``, ``_layout``).

All fractional quantities — vote shares, ideal seat counts, residuals,
divisor bids, multipliers — are `fractions.Fraction` values built from
Python integers, so comparisons are exact and equal values are detected
reliably.  Nothing in this package goes through binary floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _fmt(value) -> str:
    """Exact rendering; non-integers get a ~ approximation appended."""
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return _ratio(value.numerator, value.denominator)


def _ratio(num, den) -> str:
    """:func:`_fmt` of the fraction ``num / den``, given in lowest terms; no
    ``Fraction`` is built unless it is past the float range."""
    if den == 1:
        return str(num)
    try:
        approx = f"{num / den:.4f}"  # what float() of the Fraction computes
    except OverflowError:  # beyond the float range: round exactly instead
        whole, frac = divmod(abs(round(Fraction(num, den) * 10_000)), 10_000)
        approx = f"{'-' if num < 0 else ''}{whole}.{frac:04d}"
    return f"{num}/{den} (~{approx})"


def _layout(rows) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows])


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
    is its standing bid for the next seat.  The engine's table is a
    :class:`DivisorSteps`, which builds these rows only when it is indexed
    or iterated; consecutive rows may share the same immutable ``Fraction``
    objects, and values and equality are unchanged.
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
    A traced divisor table's ``steps`` is a :class:`DivisorSteps` from the
    engine, a tuple of :class:`DivisorStep` rows from :func:`from_json`;
    the two compare equal.
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


class _LazyRows:
    """A frozen sequence of rows kept as columns, the ``__slots__`` a
    subclass names, with one ``winners`` entry per row.

    A row is built only when the sequence is indexed (``_row``) or
    iterated; the sequence equals, and hashes as, the tuple of its rows.
    """

    __slots__ = ()

    def __init__(self, *columns):
        for name, value in zip(self.__slots__, columns, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __len__(self):
        return len(self.winners)

    def __iter__(self):
        return self._rows(range(len(self.winners)))

    def __getitem__(self, index):
        rows = range(len(self.winners))[index]
        return self._row(rows) if isinstance(rows, int) else tuple(self._rows(rows))

    def _rows(self, rows):
        """The rows at the indices in the range ``rows``, built one by one."""
        return map(self._row, rows)

    def __eq__(self, other):
        if isinstance(other, _LazyRows):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"{type(self).__name__}({tuple(self)!r})"


class SeatAwards(_LazyRows):
    """An engine's award log, kept as two int columns: the seat awarded at
    iteration j (from 1) went to party ``party_ids[winners[j - 1]]`` at the
    deficit ``tops[j - 1] / total``, against the house target ``house``, or
    ``house + j`` where the house ``grows`` with each award.

    A :class:`SeatAward` row is built only when the log is indexed or
    iterated; the log equals, and hashes as, the tuple of its rows.
    """

    __slots__ = ("party_ids", "winners", "tops", "total", "house", "grows")

    def _row(self, i):
        j = i + 1
        return SeatAward(j, self.house + self.grows * j, self.party_ids[self.winners[i]],
                         Fraction(self.tops[i], self.total))

    def columns(self):
        """The rows' fields as columns: iteration, house target, party, and
        the deficit's numerator and denominator in lowest terms, reduced by
        one ``gcd`` map."""
        n, total, tops, house = len(self.winners), self.total, self.tops, self.house
        gcds = list(map(math.gcd, tops, itertools.repeat(total, n)))
        houses = range(house + 1, house + n + 1) if self.grows else itertools.repeat(house, n)
        return (range(1, n + 1), houses, map(self.party_ids.__getitem__, self.winners),
                map(operator.floordiv, tops, gcds), map(total.__floordiv__, gcds))


class DivisorSteps(_LazyRows):
    """An engine's divisor table, kept as its winners: the seat handed out
    at step j (from 1) went to party ``party_ids[winners[j - 1]]``, and a
    party holding n seats bids ``votes[i] / (q n + p)``.

    :meth:`cells` is the one walk of the table, which its rows, its JSON
    and its table text all read.  A :class:`DivisorStep` row is built only
    when the table is indexed or iterated; the table equals, and hashes
    as, the tuple of its rows.
    """

    __slots__ = ("party_ids", "votes", "p", "q", "winners")

    def cells(self, quota, none, seat, start=0):
        """``(i, seats, presents, nexts)`` for each row i from ``start`` on:
        running lists of ``seat(n)`` per seat count and ``quota(num, den)``
        per bid in lowest terms (``none`` while seatless).  The seats are
        counted once up to ``start``, and after each row only the winner's
        three cells are rewritten; no cell is made when no row is left."""
        winners, votes, p, q = self.winners, self.votes, self.p, self.q
        if start >= len(winners):
            return

        def bid(i, n):
            v, den = votes[i], q * n + p
            g = math.gcd(v, den)
            return quota(v // g, den // g)

        counts = list(map(winners[:start].count, range(len(votes))))
        seats = list(map(seat, counts))
        presents = [bid(i, n - 1) if n else none for i, n in enumerate(counts)]
        nexts = [bid(i, n) for i, n in enumerate(counts)]
        for i in range(start, len(winners)):
            yield i, seats, presents, nexts
            best = winners[i]
            n = counts[best] = counts[best] + 1
            seats[best] = seat(n)
            presents[best], nexts[best] = nexts[best], bid(best, n)

    def _row(self, i):
        return next(self._rows(range(i, i + 1)))

    def _rows(self, rows):
        if rows.step < 0:  # walk forwards, then reverse
            return reversed(tuple(self._rows(rows[::-1])))
        walk = self.cells(Fraction, None, int, rows.start)
        return (DivisorStep(i + 1, tuple(seats), tuple(presents), tuple(nexts),
                            self.party_ids[self.winners[i]])
                for i, seats, presents, nexts in
                itertools.islice(walk, 0, len(rows) * rows.step, rows.step))


@dataclass(frozen=True)
class AwardLog:
    """The trace of a sequential Hare run: one award per seat, in order.

    ``awards`` is a :class:`SeatAwards` from the engine, a tuple of
    :class:`SeatAward` rows from :func:`from_json`; the two compare equal.
    """

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
    non-empty and the interval is dropped).  A sequential run's
    ``awards`` is a :class:`SeatAwards`, equal to the tuple of its rows.
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
