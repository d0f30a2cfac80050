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
  threshold: 1 for floor, 1/2 for nearest), so rounding at M = N and
  stepping M over whole groups of coincident thresholds fills the house —
  no numeric search, and ties surface as exactly coincident thresholds
  rather than as near-misses.

:func:`jump_allocation` returns what the per-seat forms (the divisor table
and sequential Hare) return, with their tie events, without a loop over
the seats: it rounds at a pilot multiplier and steps the last few seats.

Hot paths compare candidates by integer cross-multiplication; `Fraction`
objects only materialise in reports and traces.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from .types import (
    Allocation,
    DivisorStep,
    InputError,
    IterationGuardError,
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

#: Refuse to build more rows than this: the divisor table and the award log
#: have one row per seat, a two-stage sweep one per top-up, and a jump's tie
#: events count as rows too.  :func:`_check_rows` reads it at each call.
MAX_TRACE_ROWS = 50_000

#: Signpost t = p/q of each divisor method.  Holding n seats, party i bids
#: v_i / (q n + p) in the table and gains its next seat when the multiplier
#: reaches (n + t) V / v_i: the same number, so one rule in both forms.
_SIGNPOSTS = {DHONDT: Fraction(1), SAINTE_LAGUE: Fraction(1, 2)}


def _check_rows(count, what):
    """Refuse ``count`` (or more) ``what`` beyond ``MAX_TRACE_ROWS``."""
    if count > MAX_TRACE_ROWS:
        raise IterationGuardError(
            f"the run would build at least {count} {what} (limit {MAX_TRACE_ROWS})"
        )


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
    tally: VoteTally,
    house_size: int,
    tie: TiePolicy = TiePolicy(),
    *,
    with_trace: bool = True,
) -> tuple[Allocation, tuple[SeatAward, ...]]:
    """One-seat-at-a-time restatement of the largest-remainder rule.

    Seat ``j`` goes to the party with the largest deficit
    ``N * v_i / V - n_i``.  Returns the allocation together with the award
    log (which seat went where, at what deficit).  With
    ``with_trace=False`` the same per-seat loop runs without building the
    log, and ``()`` comes back in its place; tie events are kept.
    """
    _check_house(house_size)
    if with_trace:
        _check_rows(house_size, "award log rows")
    seats = [0] * tally.party_count
    deficits = [house_size * v for v in tally.votes]
    awards = [] if with_trace else None
    events = []
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
    return allocation, tuple(awards) if with_trace else ()


def _award_deficits(
    ids, total, ranks, seats, nums, house, iterations, context, awards, events
):
    """Give one seat per iteration ``j`` to the largest deficit.

    ``nums[i]`` is party i's deficit ``house * v_i / V - seats[i]`` over the
    common denominator ``total`` = V; only the winner's numerator moves.
    Equal deficits go to the lowest tie rank and are logged as a tie event.
    Updates ``seats`` and ``nums`` in place and appends to ``awards``
    (unless it is None) and ``events``.
    """
    parties = range(len(nums))
    for j in iterations:
        top = max(nums)
        best = nums.index(top)
        if nums.count(top) > 1:
            tied = [i for i in parties if nums[i] == top]
            best = min(tied, key=ranks.__getitem__)
            events.append(
                TieEvent(
                    context=f"{context} {j}",
                    tied=tuple(ids[i] for i in tied),
                    winners=(ids[best],),
                )
            )
        if awards is not None:
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


def highest_averages(
    tally: VoteTally,
    house_size: int,
    method: str = DHONDT,
    tie: TiePolicy = TiePolicy(),
    *,
    with_trace: bool = True,
) -> tuple[Allocation, TraceTable]:
    """Greedy divisor table: each seat goes to the highest standing bid.

    A party holding ``n`` seats bids ``v_i / (q n + p)``, t = p/q being the
    method's signpost: ``v_i / (n + 1)`` under d'Hondt-Jefferson, ``v_i /
    (2n + 1)`` under Sainte-Laguë.  Bids are compared by integer
    cross-multiplication; equal top bids go to the lowest tie rank and are
    logged as a ``seat j`` tie event listing every tied party.  The trace
    records, per seat, the full bidding table (present and next prices).
    Only the winner's prices move, so consecutive rows share the other
    ``Fraction`` objects (one new one per seat; values and equality are as
    if each row were built afresh).
    """
    _check_house(house_size)
    if method not in tuple(_SIGNPOSTS):  # by ==: an unhashable method is refused too
        raise InputError(f"unknown divisor method {method!r}")
    p, q = _SIGNPOSTS[method].as_integer_ratio()
    votes = tally.votes
    if with_trace:
        _check_rows(house_size, "divisor table rows")
        presents, nexts = [None] * len(votes), [Fraction(v, p) for v in votes]
    ids = tally.party_ids
    ranks = tie.ranks(tally)
    k = tally.party_count
    seats = [0] * k
    dens = [p] * k  # q * seats[i] + p
    steps = []
    events = []
    for step in range(1, house_size + 1):
        best = 0
        best_num, best_den = votes[0], dens[0]
        tied = [0]
        for i in range(1, k):
            num, den = votes[i], dens[i]
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
                    tied=tuple(ids[i] for i in tied),
                    winners=(ids[best],),
                )
            )
        if with_trace:
            steps.append(
                DivisorStep(
                    step=step,
                    seats_before=tuple(seats),
                    present_quota=tuple(presents),
                    next_quota=tuple(nexts),
                    winner=ids[best],
                )
            )
            presents[best] = nexts[best]
            nexts[best] = Fraction(votes[best], dens[best] + q)
        seats[best] += 1
        dens[best] += q
    allocation = Allocation(
        party_ids=ids,
        seats=tuple(seats),
        house_size=house_size,
        method=method,
        form="divisor",
        tie_events=tuple(events),
    )
    trace = TraceTable(
        form="divisor",
        method=method,
        party_ids=ids,
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


def _fill(tally, base, t, ranks, count):
    """Take the ``count`` smallest seat thresholds above ``base`` seats.

    Returns ``(groups, overhang, following)``: the bids taken, as lists of
    coincident thresholds in ascending order; the bids coincident with the
    last group that did not fit (a tie straddling the target); and the
    first bid above that multiplier.
    """
    groups = []
    stream = _thresholds(tally, base, t, ranks)
    for bid in itertools.islice(stream, count):
        if groups and bid.same_value(groups[-1][0]):
            groups[-1].append(bid)
        else:
            groups.append([bid])
    following = next(stream)
    overhang = []
    while groups and following.same_value(groups[-1][0]):
        overhang.append(following)
        following = next(stream)
    return groups, overhang, following


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
        return _SIGNPOSTS[DHONDT]
    if rounding == "nearest":
        if round_threshold is None:
            return _SIGNPOSTS[SAINTE_LAGUE]
        t = _exact(round_threshold, "round_threshold")
        if not 0 < t <= 1:
            raise InputError("round_threshold must lie in (0, 1]")
        return t
    raise InputError(f"unknown rounding rule {rounding!r}")


def _exact(x, name):
    """``x`` as a Fraction: only an int or a Fraction (not a bool) is exact."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"{name} must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def _method_label(t):
    named = {signpost: method for method, signpost in _SIGNPOSTS.items()}
    return named.get(t, f"nearest-{t.numerator}/{t.denominator}")


def multiplicative(
    tally: VoteTally,
    house_size: int,
    rounding: str = "floor",
    *,
    round_threshold=None,
    tie: TiePolicy = TiePolicy(),
    with_trace: bool = True,
) -> tuple[Allocation, TraceTable]:
    """Fill the house by scaling shares with a common multiplier M.

    Party ``i`` receives ``round_t(M * v_i / V)`` seats; the function finds
    an M under which those counts sum to ``house_size`` and reports it as
    the trace's ``witness``.  It rounds every party at the pilot M = N,
    then steps M over whole groups of coincident thresholds, down or up,
    until the rounded counts fit.  The pilot misses by fewer than k seats,
    so the walk costs O(k log k) whatever N is; the trace records every
    probe.

    When coincident thresholds straddle the house boundary the tie policy
    de-assigns the surplus seats; the witness then over-fills the house on
    its own and ``witness_is_exact`` is False.
    """
    _check_house(house_size)
    t = _round_threshold(rounding, round_threshold)
    seats, steps, events, witness, exact = _multiplicative_sweep(
        tally, house_size, t, tie.ranks(tally), with_trace
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
    multiplier = _exact(multiplier, "multiplier")
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

    A divisor method's signpost t = p/q prices a seat at ``V / (q M)``
    votes: ``V / M`` for d'Hondt, ``V / (2M)`` for Sainte-Laguë.  Other
    thresholds have no standard quota reading, so None is returned.
    """
    if witness is None or witness == 0 or t not in _SIGNPOSTS.values():
        return None
    return Fraction(total) / (t.denominator * witness)


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
    groups, overhang, _ = _fill(tally, seats, t, ranks, house_size - count)
    for group in groups:
        for bid in group:
            seats[bid.party] += 1
        count += len(group)
        if with_trace:
            steps.append(MultiplierStep("raise", group[0].value(), tuple(seats), count))
    taken = groups[-1]
    witness = taken[0].value()
    if not overhang:
        return seats, steps, [], witness, True
    if with_trace:
        steps[-1] = MultiplierStep("deassign", witness, steps[-1].seats, house_size)
    event = _straddle_event(tally.party_ids, witness, taken, overhang)
    return seats, steps, [event], witness, False


def jump_allocation(
    tally: VoteTally, house_size: int, method: str, tie: TiePolicy = TiePolicy()
) -> Allocation:
    """The per-seat forms' allocation, reached by jump-and-step.

    Returns, field for field, what ``highest_averages(...,
    with_trace=False)[0]`` returns for d'Hondt and Sainte-Laguë and what
    ``sequential_hare(...)[0]`` returns for Hare: the same seats and every
    per-seat tie event.  A pilot that cannot over-fill the house (the lower
    quotas for Hare, ``round_t`` at M₀ = max(0, N - k(1 - t)) for the
    divisor methods) leaves fewer than k seats: the next thresholds in
    (value, tie rank) order, or the largest remainders.  Every tie event
    is rebuilt from groups of coincident values.  Costs O(k²) for the
    divisor methods and O(k log k) for Hare, plus O(k) per tie event,
    whatever N is.
    """
    _check_house(house_size)
    if method not in METHODS:  # by ==: an unhashable method is refused too
        raise InputError(f"unknown method {method!r}")
    ranks = tie.ranks(tally)
    if method == HARE:
        seats, events = _jump_hare(tally, house_size, ranks)
        form = "sequential"
    else:
        seats, events = _jump_divisor(tally, house_size, _SIGNPOSTS[method], ranks)
        form = "divisor"
    return Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=method,
        form=form,
        tie_events=tuple(events),
    )


def _jump_divisor(tally, house_size, t, ranks):
    """Round at M₀ = max(0, N - k(1 - t)), then take the last seats' thresholds.

    ``round_t(M * v_i / V)`` lies in ``(M * v_i / V - t, M * v_i / V + 1 - t]``
    for a party with votes, so the pilot counts sum to more than N - k and
    to at most N.  They are every threshold up to M₀: the table's first
    ``sum(seats)`` seats.  The rest come from the threshold stream, where
    the table's bid order is (value, tie rank).
    """
    pilot = max(Fraction(0), house_size - tally.party_count * (1 - t))
    seats = _rounded(tally, pilot, t)
    ties = _divisor_groups(tally, seats, t)
    earlier = sum(seats)
    groups, overhang, _ = _fill(tally, seats, t, ranks, house_size - earlier)
    for group in groups:
        ties.append((earlier, [bid.party for bid in group]))
        earlier += len(group)
        for bid in group:
            seats[bid.party] += 1
    if overhang:  # the parties left out still tied for seat N
        ties[-1][1].extend(bid.party for bid in overhang)
    return seats, _group_events(tally, ranks, "seat", ties, house_size)


def _divisor_groups(tally, seats, t):
    """Coincident thresholds among the first ``seats[i]`` of each party.

    With t = p/q, party i's n-th threshold is ``(q(n - 1) + p) * V / (q v_i)``.
    Parties i and j coincide exactly where ``q(n_i - 1) + p = m a`` and
    ``q(n_j - 1) + p = m b``, with ``a : b = v_i : v_j`` in lowest terms, at
    the value ``m V / (q g)``, g = gcd(v_i, v_j).  For t = 1 that is every
    m >= 1; for t = 1/2 every odd m, when a and b are odd.  Returns one
    ``(earlier, members)`` pair per value: the count of thresholds strictly
    below it and the parties holding it.
    """
    p, q = t.numerator, t.denominator
    votes = tally.votes
    k = len(votes)
    tops = [q * (n - 1) + p for n in seats]  # m a at each party's last seat
    groups = {}  # m / g of the value, in lowest terms -> parties
    found = 0
    for i, j in itertools.combinations(range(k), 2):
        if not (seats[i] and seats[j]):
            continue
        g = math.gcd(votes[i], votes[j])
        a, b = votes[i] // g, votes[j] // g
        if q == 2 and not a & b & 1:
            continue
        ms = range(1, min(tops[i] // a, tops[j] // b) + 1, q)
        # Lower bounds on the events: each m is a value of its own, and a
        # value s parties share is found by s(s - 1)/2 <= (s - 1)k/2 pairs.
        found += len(ms)
        _check_rows(max(len(ms), 2 * found // k), "tie events")
        for m in ms:
            d = math.gcd(m, g)
            groups.setdefault((m // d, g // d), set()).update((i, j))
    _check_rows(sum(len(members) - 1 for members in groups.values()), "tie events")
    # party l's thresholds below m V / (q g): those with (q(n - 1) + p) g < m v_l
    return [
        (sum(max(0, -((p * g - m * v) // (q * g))) for v in votes if v), members)
        for (m, g), members in groups.items()
    ]


def _jump_hare(tally, house_size, ranks):
    """Award the lower quotas at once, then the leftover seats by remainder.

    Party i's deficits ``N v_i - n V`` (over V) run down from ``N v_i`` in
    steps of V.  Its lower quota counts those of at least V, and no other
    deficit reaches V, so the award loop hands them out first.  The fewer
    than k seats left go one each to the largest remainders ``N v_i mod
    V``, in tie-rank order among equals.  Parties with equal remainders tie
    at every level ``c V + remainder`` that both of them hold, the
    remainder itself (level 0) included.
    """
    total = tally.total_votes
    ideals = [house_size * v for v in tally.votes]
    seats, rems = [], []
    for x in ideals:
        lower, remainder = divmod(x, total)
        seats.append(lower)
        rems.append(remainder)
    base = sum(seats)
    order = sorted(range(tally.party_count), key=lambda i: (-rems[i], ranks[i]))
    classes = {}  # remainder -> (deficits above it, parties)
    for position, i in enumerate(order):
        classes.setdefault(rems[i], (base + position, []))[1].append(i)
    # Level c >= 1 of a class logs (members holding c) - 1 events: summed
    # over the levels, every member's seats but the largest count.
    _check_rows(sum(
        sum(held) - max(held)
        for held in ([seats[i] for i in members] for _, members in classes.values())
    ), "tie events")
    groups = []
    for remainder, (first, members) in classes.items():
        if len(members) < 2:
            continue
        groups.append((first, members))
        for c in range(1, sorted(seats[i] for i in members)[-2] + 1):
            level = c * total + remainder
            # party l's deficits above the level: N v_l - n V > level
            earlier = sum(max(0, -((level - x) // total)) for x in ideals)
            groups.append((earlier, [i for i in members if seats[i] >= c]))
    for i in order[:house_size - base]:
        seats[i] += 1
    return seats, _group_events(tally, ranks, "award", groups, house_size)


def _group_events(tally, ranks, context, groups, last):
    """The tie events a per-seat loop logs for groups of coincident values.

    A group of g parties whose value has ``earlier`` values before it fills
    steps ``earlier + 1 .. earlier + g``; at each step but the last the
    members left tie, listed in index order, and the lowest tie rank wins.
    The loop ends at step ``last``, so a group straddling it logs the ties
    up to ``last`` only.  Their total is checked before any event is built.
    """
    ids = tally.party_ids
    _check_rows(sum(max(0, min(len(m) - 1, last - e)) for e, m in groups), "tie events")
    events = []
    for earlier, members in sorted(groups, key=lambda group: group[0]):
        left = sorted(members)
        for step in range(earlier + 1, min(earlier + len(left), last + 1)):
            best = min(left, key=ranks.__getitem__)
            events.append(
                TieEvent(
                    context=f"{context} {step}",
                    tied=tuple(ids[i] for i in left),
                    winners=(ids[best],),
                )
            )
            left.remove(best)
    return events
