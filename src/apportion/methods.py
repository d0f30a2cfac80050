"""Fixed-house apportionment: largest remainder, divisor tables, multipliers.

Four operations cover the three classical methods in their two familiar
presentations:

* :func:`hare_niemeyer` — largest-remainder rule: every party receives its
  lower quota, and the leftover seats go to the largest fractional
  remainders.
* :func:`sequential_hare` — the same rule restated one seat at a time:
  each seat goes to the party whose ideal-minus-assigned deficit is
  currently largest.  It lands on the identical seat vector.
* :func:`highest_averages` — greedy divisor table.  With divisors
  1, 2, 3, ... it is the d'Hondt-Jefferson method; with 1, 3, 5, ... it is
  Sainte-Laguë.
* :func:`multiplicative` — scale the vote shares by a common multiplier M
  and round per party, adjusting M until the rounded counts fill the house
  exactly.  Floor rounding reproduces d'Hondt-Jefferson; nearest rounding
  reproduces Sainte-Laguë.  A party gains its s-th seat exactly when M
  crosses the threshold ``(s - 1 + t) * V / v_i`` (t being the rounding
  threshold: 1 for floor, 1/2 for nearest), so the house fills at the
  N-th smallest threshold — no numeric search, and ties surface as exactly
  coincident thresholds rather than as near-misses.

Hot paths compare candidates by integer cross-multiplication; `Fraction`
objects only materialise in reports and traces.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

from .types import (
    Allocation,
    DivisorStep,
    InputError,
    MultiplierStep,
    QuotaReport,
    SeatAward,
    TieEvent,
    TiePolicy,
    TraceTable,
    VoteTally,
    _is_count,
)

HARE = "hare"
DHONDT = "dhondt"
SAINTE_LAGUE = "sainte-lague"

METHODS = (HARE, DHONDT, SAINTE_LAGUE)

# Divisor for a party's next seat, given its current seat count.
_DIVISORS = {
    DHONDT: lambda n: n + 1,
    SAINTE_LAGUE: lambda n: 2 * n + 1,
}


def _check_house(house_size):
    if not _is_count(house_size):
        raise InputError("house size must be a non-negative integer")


def compute_quotas(tally: VoteTally, house_size: int) -> QuotaReport:
    """Ideal seat counts ``N * v_i / V`` with lower/upper integer bounds."""
    _check_house(house_size)
    total = tally.total_votes
    ideals, lowers, uppers, remainders = [], [], [], []
    for v in tally.votes:
        num = house_size * v
        lower, rem = divmod(num, total)
        ideals.append(Fraction(num, total))
        lowers.append(lower)
        uppers.append(lower if rem == 0 else lower + 1)
        remainders.append(Fraction(rem, total))
    ideal_quota = Fraction(total, house_size) if house_size > 0 else None
    return QuotaReport(
        party_ids=tally.party_ids,
        house_size=house_size,
        ideals=tuple(ideals),
        lowers=tuple(lowers),
        uppers=tuple(uppers),
        remainders=tuple(remainders),
        ideal_quota=ideal_quota,
    )


def hare_niemeyer(
    tally: VoteTally, house_size: int, tie: TiePolicy = TiePolicy()
) -> Allocation:
    """Largest-remainder allocation.

    Every party starts from its lower quota ``floor(N * v_i / V)``; the
    seats still missing go to the parties with the largest fractional
    remainders.  A tie event is recorded only when equal remainders
    straddle the cut-off, i.e. when the tie policy actually decided
    something.
    """
    _check_house(house_size)
    total = tally.total_votes
    seats = []
    rem_nums = []  # remainder numerators over the common denominator `total`
    for v in tally.votes:
        lower, rem = divmod(house_size * v, total)
        seats.append(lower)
        rem_nums.append(rem)
    leftover = house_size - sum(seats)
    events = []
    if leftover:
        ranks = tie.ranks(tally)
        order = sorted(range(tally.party_count), key=lambda i: (-rem_nums[i], ranks[i]))
        for i in order[:leftover]:
            seats[i] += 1
        boundary = rem_nums[order[leftover - 1]]
        group = [i for i in order if rem_nums[i] == boundary]
        chosen = [i for i in order[:leftover] if rem_nums[i] == boundary]
        if len(chosen) < len(group):
            events.append(
                TieEvent(
                    context="residual seats",
                    tied=tuple(tally.party_ids[i] for i in sorted(group)),
                    winners=tuple(tally.party_ids[i] for i in sorted(chosen)),
                )
            )
    return Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=HARE,
        form="largest-remainder",
        tie_events=tuple(events),
    )


def sequential_hare(
    tally: VoteTally, house_size: int, tie: TiePolicy = TiePolicy()
) -> tuple[Allocation, tuple[SeatAward, ...]]:
    """One-seat-at-a-time restatement of the largest-remainder rule.

    Seat ``j`` goes to the party with the largest deficit
    ``N * v_i / V - n_i``.  Returns the allocation together with the award
    log (which seat went where, at what deficit).
    """
    _check_house(house_size)
    seats = [0] * tally.party_count
    deficits = [house_size * v for v in tally.votes]
    awards, events = [], []
    _award_deficits(
        tally.party_ids, tally.total_votes, tie.ranks(tally), seats, deficits,
        house_size, range(1, house_size + 1), "award", awards, events,
    )
    allocation = Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=HARE,
        form="sequential",
        tie_events=tuple(events),
    )
    return allocation, tuple(awards)


def _award_deficits(
    ids, total, ranks, seats, nums, house, iterations, context, awards, events
):
    """Give one seat per iteration ``j`` to the largest deficit.

    ``nums[i]`` is party i's deficit ``house * v_i / V - seats[i]`` over the
    common denominator ``total`` = V; only the winner's numerator moves.
    Equal deficits go to the lowest tie rank and are logged as a tie event.
    Updates ``seats`` and ``nums`` in place and appends to ``awards`` and
    ``events``.
    """
    parties = range(len(nums))
    for j in iterations:
        top = max(nums)
        tied = [i for i in parties if nums[i] == top]
        best = tied[0]
        if len(tied) > 1:
            best = min(tied, key=ranks.__getitem__)
            events.append(
                TieEvent(
                    context=f"{context} {j}",
                    tied=tuple(ids[i] for i in tied),
                    winners=(ids[best],),
                )
            )
        awards.append(
            SeatAward(
                iteration=j,
                house_target=house,
                party=ids[best],
                deficit=Fraction(top, total),
            )
        )
        seats[best] += 1
        nums[best] = top - total


def _present_quota(votes, seats, method):
    if seats == 0:
        return None
    den = seats if method == DHONDT else 2 * seats - 1
    return Fraction(votes, den)


def highest_averages(
    tally: VoteTally,
    house_size: int,
    method: str = DHONDT,
    tie: TiePolicy = TiePolicy(),
    *,
    with_trace: bool = True,
) -> tuple[Allocation, TraceTable]:
    """Greedy divisor table: each seat goes to the highest standing bid.

    A party holding ``n`` seats bids ``v_i / (n + 1)`` under
    d'Hondt-Jefferson and ``v_i / (2n + 1)`` under Sainte-Laguë.  Bids are
    compared by integer cross-multiplication.  The trace records, per
    seat, the full bidding table (present and next votes-per-seat prices).
    """
    _check_house(house_size)
    if method not in _DIVISORS:
        raise InputError(f"unknown divisor method {method!r}")
    divisor_of = _DIVISORS[method]
    votes = tally.votes
    k = tally.party_count
    ranks = tie.ranks(tally)
    seats = [0] * k
    steps = []
    events = []
    for step in range(1, house_size + 1):
        best = 0
        best_num, best_den = votes[0], divisor_of(seats[0])
        tied = [0]
        for i in range(1, k):
            num, den = votes[i], divisor_of(seats[i])
            lhs = num * best_den
            rhs = best_num * den
            if lhs > rhs:
                best, best_num, best_den = i, num, den
                tied = [i]
            elif lhs == rhs:
                tied.append(i)
                if ranks[i] < ranks[best]:
                    best, best_num, best_den = i, num, den
        if len(tied) > 1:
            events.append(
                TieEvent(
                    context=f"seat {step}",
                    tied=tuple(tally.party_ids[i] for i in tied),
                    winners=(tally.party_ids[best],),
                )
            )
        if with_trace:
            steps.append(
                DivisorStep(
                    step=step,
                    seats_before=tuple(seats),
                    present_quota=tuple(
                        _present_quota(votes[i], seats[i], method) for i in range(k)
                    ),
                    next_quota=tuple(
                        Fraction(votes[i], divisor_of(seats[i])) for i in range(k)
                    ),
                    winner=tally.party_ids[best],
                )
            )
        seats[best] += 1
    allocation = Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=method,
        form="divisor",
        tie_events=tuple(events),
    )
    trace = TraceTable(
        form="divisor",
        method=method,
        party_ids=tally.party_ids,
        steps=tuple(steps),
        final_seats=tuple(seats),
    )
    return allocation, trace


class _Bid:
    """Heap entry: the exact multiplier at which a party gains one more seat.

    Ordered by value (integer cross-multiplication), then by tie rank, so
    the heap pops coincident thresholds in tie-policy order.
    """

    __slots__ = ("num", "den", "rank", "party")

    def __init__(self, num, den, rank, party):
        self.num = num
        self.den = den
        self.rank = rank
        self.party = party

    def __lt__(self, other):
        lhs = self.num * other.den
        rhs = other.num * self.den
        if lhs != rhs:
            return lhs < rhs
        return self.rank < other.rank

    def same_value(self, other):
        return self.num * other.den == other.num * self.den

    def value(self):
        return Fraction(self.num, self.den)


def _thresholds(tally, base, t, ranks, down=False):
    """Seat thresholds from ``base`` seats on, as a stream of ``_Bid``s.

    Holding n seats, party i gains one more when the multiplier reaches
    ``(n + t) * V / v_i``, so its thresholds lie ``V / v_i`` apart.  The
    stream yields every threshold above ``base`` in (value, tie rank) order;
    it is endless because some party has votes.  With ``down`` it yields
    the thresholds of the seats held instead, highest first, as bids with
    negated numerators, and ends when no seat is left.  Parties without
    votes never gain a seat.
    """
    p, q = t.numerator, t.denominator
    total = tally.total_votes
    step = q * total
    if down:  # negated, so the highest threshold pops first; 0: none held
        firsts = [-((b - 1) * q + p) * total if b else 0 for b in base]
    else:
        firsts = [(b * q + p) * total for b in base]
    heap = [
        _Bid(num, q * v, ranks[i], i)
        for i, (v, num) in enumerate(zip(tally.votes, firsts))
        if v > 0 and num != 0
    ]
    heapq.heapify(heap)
    while heap:
        bid = heap[0]
        yield bid
        num = bid.num + step
        if down and num >= 0:  # that was the party's first seat
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, _Bid(num, bid.den, bid.rank, bid.party))


def _fill(tally, base, t, ranks, count, with_trace, *, start=None, groups=False):
    """Take the ``count`` smallest seat thresholds above ``base`` seats.

    Returns ``(seats, snapshots, taken, overhang, following)``: the seats
    per party, counted up from ``start`` (zeros by default); when tracing,
    a ``(multiplier, seats)`` snapshot per seat, or with ``groups`` one per
    distinct multiplier; the bids taken at the last multiplier; the bids
    coincident with them that did not fit (a tie straddling the target);
    and the first bid above that multiplier.
    """
    seats = [0] * tally.party_count if start is None else list(start)
    per_seat = with_trace and not groups
    per_group = with_trace and groups
    snapshots = []
    taken = []
    stream = _thresholds(tally, base, t, ranks)
    for bid in itertools.islice(stream, count):
        if taken and bid.same_value(taken[0]):
            taken.append(bid)
        else:
            if per_group and taken:
                snapshots.append((taken[0].value(), tuple(seats)))
            taken = [bid]
        seats[bid.party] += 1
        if per_seat:
            snapshots.append((bid.value(), tuple(seats)))
    if per_group and taken:
        snapshots.append((taken[0].value(), tuple(seats)))
    following = next(stream)
    overhang = []
    while taken and following.same_value(taken[0]):
        overhang.append(following)
        following = next(stream)
    return seats, snapshots, taken, overhang, following


def _straddle_event(party_ids, multiplier, taken, overhang):
    """Coincident thresholds straddle the target: ``taken`` keep their
    seats and the tie policy de-assigns ``overhang``."""
    return TieEvent(
        context=f"multiplier {multiplier}",
        tied=tuple(party_ids[i] for i in sorted(b.party for b in taken + overhang)),
        winners=tuple(party_ids[i] for i in sorted(b.party for b in taken)),
    )


def _round_threshold(rounding, round_threshold):
    """Resolve the rounding rule to a threshold t in (0, 1].

    ``round_t(x)`` awards s seats when ``x >= s - 1 + t``; t = 1 is floor
    rounding, t = 1/2 is round-to-nearest (exact halves round up).
    """
    if rounding == "floor":
        if round_threshold is not None:
            raise InputError("round_threshold applies to nearest rounding only")
        return Fraction(1)
    if rounding == "nearest":
        t = Fraction(1, 2) if round_threshold is None else Fraction(round_threshold)
        if not 0 < t <= 1:
            raise InputError("round_threshold must lie in (0, 1]")
        return t
    raise InputError(f"unknown rounding rule {rounding!r}")


def _method_label(t):
    if t == 1:
        return DHONDT
    if t == Fraction(1, 2):
        return SAINTE_LAGUE
    return f"nearest-{t.numerator}/{t.denominator}"


def multiplicative(
    tally: VoteTally,
    house_size: int,
    rounding: str = "floor",
    *,
    round_threshold=None,
    tie: TiePolicy = TiePolicy(),
    engine: str = "threshold",
    with_trace: bool = True,
) -> tuple[Allocation, TraceTable]:
    """Fill the house by scaling shares with a common multiplier M.

    Party ``i`` receives ``round_t(M * v_i / V)`` seats; the function finds
    an M under which those counts sum to ``house_size`` and reports it as
    the trace's ``witness``.  Two engines are available and always agree:

    * ``"threshold"`` pops the N smallest seat-gain thresholds from a heap
      (M never has to be searched for — the N-th threshold *is* a valid
      multiplier).
    * ``"sweep"`` rounds every party at the pilot M = N, then steps M over
      whole groups of coincident thresholds, down or up, until the rounded
      counts fit.  The pilot misses by fewer than k seats, so the walk
      costs O(k log k) whatever N is; the trace records every probe.

    When coincident thresholds straddle the house boundary the tie policy
    de-assigns the surplus seats; the witness then over-fills the house on
    its own and ``witness_is_exact`` is False.
    """
    _check_house(house_size)
    if engine not in ("threshold", "sweep"):
        raise InputError(f"unknown engine {engine!r}")
    t = _round_threshold(rounding, round_threshold)
    ranks = tie.ranks(tally)
    if engine == "threshold":
        seats, steps, events, witness, exact = _multiplicative_threshold(
            tally, house_size, t, ranks, with_trace
        )
    else:
        seats, steps, events, witness, exact = _multiplicative_sweep(
            tally, house_size, t, ranks, with_trace
        )
    method = _method_label(t)
    allocation = Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=method,
        form="multiplicative",
        tie_events=tuple(events),
    )
    trace = TraceTable(
        form="multiplicative",
        method=method,
        party_ids=tally.party_ids,
        steps=tuple(steps),
        final_seats=tuple(seats),
        witness=witness,
        witness_is_exact=exact,
        implied_quota=_implied_quota(tally.total_votes, witness, t),
    )
    return allocation, trace


def seats_at_multiplier(
    tally: VoteTally, multiplier, rounding: str = "floor", *, round_threshold=None
) -> tuple[int, ...]:
    """Per-party seat counts ``round_t(M * v_i / V)`` at an explicit M.

    Useful for checking that a multiplier is a valid witness: it is one
    exactly when these counts sum to the intended house size.  Any M in a
    witness's accepting interval passes, not just the one reported.
    """
    t = _round_threshold(rounding, round_threshold)
    multiplier = Fraction(multiplier)
    if multiplier < 0:
        raise InputError("multiplier must be non-negative")
    return tuple(_rounded(tally, multiplier, t))


def _rounded(tally, multiplier, t):
    """``round_t(M * v_i / V)`` per party, in integers: with M = a/b and
    t = p/q, ``max(0, floor((q*a*v_i - p*b*V) / (q*b*V)) + 1)``."""
    a, b = multiplier.numerator, multiplier.denominator
    p, q = t.numerator, t.denominator
    total = tally.total_votes
    offset, den = p * b * total, q * b * total
    return [max(0, (q * a * v - offset) // den + 1) for v in tally.votes]


def _implied_quota(total, witness, t):
    """Votes-per-seat scale of the witness, where the rule has one.

    Floor rounding assigns ``floor(M * v_i / V)`` seats, i.e. prices a seat
    at ``q = V / M`` votes; nearest rounding prices it at ``q = V / (2M)``.
    Other thresholds have no standard quota reading, so None is returned.
    """
    if witness is None or witness == 0:
        return None
    if t == 1:
        return Fraction(total) / witness
    if t == Fraction(1, 2):
        return Fraction(total) / (2 * witness)
    return None


def _multiplicative_threshold(tally, house_size, t, ranks, with_trace):
    seats, snapshots, taken, overhang, _ = _fill(
        tally, (0,) * tally.party_count, t, ranks, house_size, with_trace
    )
    steps = [
        MultiplierStep(action="raise", multiplier=m, seats=s, total=j)
        for j, (m, s) in enumerate(snapshots, start=1)
    ]
    if not taken:
        return seats, steps, [], Fraction(0), True
    witness = taken[0].value()
    if not overhang:
        return seats, steps, [], witness, True
    # The witness multiplier awards every coincident threshold at once; the
    # tie policy keeps the first `house_size` of them and strips the rest,
    # so the witness alone over-fills the house.
    if with_trace:
        steps.append(
            MultiplierStep(
                action="deassign",
                multiplier=witness,
                seats=tuple(seats),
                total=house_size,
            )
        )
    event = _straddle_event(tally.party_ids, witness, taken, overhang)
    return seats, steps, [event], witness, False


def _multiplicative_sweep(tally, house_size, t, ranks, with_trace):
    """Round at the pilot multiplier M = N, then step to the house size.

    Rounding ``N * v_i / V`` misses the house by fewer than k seats.  While
    the counts over-fill it, whole groups of coincident thresholds are shed
    from the top (``lower`` rows); the seats still missing are then taken
    from the thresholds above (``raise`` rows), and a group straddling the
    house size is cut by the tie policy (``deassign``).
    """
    seats = _rounded(tally, house_size, t)
    count = sum(seats)
    steps = []
    if with_trace:
        steps.append(MultiplierStep("start", Fraction(house_size), tuple(seats), count))
    if count >= house_size:
        held = _thresholds(tally, seats, t, ranks, down=True)
        top = next(held, None)
        while count > house_size:
            group = top
            while top is not None and top.same_value(group):
                seats[top.party] -= 1
                count -= 1
                top = next(held, None)
            if with_trace:
                below = Fraction(0) if top is None else -top.value()
                steps.append(MultiplierStep("lower", below, tuple(seats), count))
        if count == house_size:
            witness = Fraction(0) if top is None else -top.value()
            return seats, steps, [], witness, True
    seats, snapshots, taken, overhang, _ = _fill(
        tally, seats, t, ranks, house_size - count, with_trace,
        start=seats, groups=True,
    )
    steps += [MultiplierStep("raise", m, s, sum(s)) for m, s in snapshots]
    witness = taken[0].value()
    if not overhang:
        return seats, steps, [], witness, True
    if with_trace:
        steps[-1] = MultiplierStep("deassign", witness, steps[-1].seats, house_size)
    event = _straddle_event(tally.party_ids, witness, taken, overhang)
    return seats, steps, [event], witness, False
