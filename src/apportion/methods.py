"""Apportionment: largest remainder, divisor tables, multipliers, two-stage top-ups.

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
the seats: the divisor methods take the multiplier sweep's seats, Hare
its lower quotas and largest remainders, and the tie events are rebuilt
from groups of coincident values.

Two-stage runs take a :class:`VoteTally` together with a
:class:`SeedDistribution` of already-won district seats ``d_i`` (total D)
and add compensatory seats so the final distribution approaches
proportionality, without ever taking a won seat away:

* :func:`seeded_sequential_hare` hands out top-up seats one at a time.  At
  iteration j the house target is D + j and the next seat goes to the
  party with the largest deficit ``(D + j) * v_i / V - m_i``.  It stops as
  soon as every residual is strictly below one in absolute value, or at a
  configured cap, or after a fixed number of extra seats.
* :func:`seeded_divisor` is the multiplier form: party i receives
  ``round_t(M * v_i / V - d_i)`` top-up seats (never negative), and the
  multiplier M is swept upward from D + 1 until the stop rule holds.

A party that won district seats on zero votes is rejected: its share can
never dilute, so the residual stop rule would chase it forever.

Hot paths compare candidates by one exact integer key: a value whose
denominators are at most D, scaled by ``2**shift > D**2`` and floored.
Two different such values differ by at least 1 / D², so their keys keep
their order, and equal values get equal keys.  The divisor table and the
threshold heap keep theirs in heaps, compared in C.  `Fraction` objects
only materialise in reports, traces and once per threshold group.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import math
import operator
from fractions import Fraction

from .types import (
    Allocation,
    DivisorSteps,
    InputError,
    IterationGuardError,
    MultiplierStep,
    QuotaReport,
    SeatAwards,
    SeedDistribution,
    SeededRun,
    STOP_CAP,
    STOP_FIXED,
    STOP_RESIDUAL,
    SweepStep,
    TieEvent,
    TiePolicy,
    TraceTable,
    VoteTally,
    _check_name,
    _check_type,
    _is_count,
)

__all__ = [
    "DHONDT", "HARE", "METHODS", "SAINTE_LAGUE", "compute_quotas", "hare_niemeyer",
    "highest_averages", "jump_allocation", "multiplicative", "seats_at_multiplier",
    "seeded_divisor", "seeded_sequential_hare", "sequential_hare",
]

HARE = "hare"
DHONDT = "dhondt"
SAINTE_LAGUE = "sainte-lague"

METHODS = (HARE, DHONDT, SAINTE_LAGUE)

#: Refuse to build more rows than this: the divisor table and the award log
#: have one row per seat, a two-stage sweep one per top-up, and tie events,
#: a jump's or a per-seat loop's, count as rows too.  :func:`_check_rows`
#: reads it at each call.
MAX_TRACE_ROWS = 50_000

#: Refuse to build more cells than this in one trace: a divisor-table row
#: holds 3·k (seat counts, present and next quotas), a multiplier-search or
#: two-stage sweep row k, an award-log row one, and a tie event one per
#: name it lists, tied or winning.  :func:`_check_rows` reads it at each
#: call.
MAX_TRACE_CELLS = 1_000_000

#: Refuse a loop that awards one seat a pass (the divisor table, sequential
#: Hare, the two-stage top-ups) past this many seats, before the first.
MAX_LOOP_SEATS = 1_000_000

#: Each divisor method, the rounding rule of its multiplier form and its
#: signpost t = p/q.  Holding n seats, party i bids v_i / (q n + p) in the
#: table and gains its next seat when the multiplier reaches (n + t) V / v_i:
#: the same number, so one rule in both forms.  The maps below all read it.
_DIVISOR_RULES = ((DHONDT, "floor", Fraction(1)), (SAINTE_LAGUE, "nearest", Fraction(1, 2)))
_SIGNPOSTS = {method: t for method, _, t in _DIVISOR_RULES}
_ROUNDING = {method: rounding for method, rounding, _ in _DIVISOR_RULES}
#: Method name of each signpost, for the sweep's labels and implied quota.
_SIGNPOST_METHODS = {t: method for method, _, t in _DIVISOR_RULES}
#: Each rounding rule's default threshold, for :func:`_round_threshold`.
_ROUNDING_SIGNPOSTS = {rounding: t for _, rounding, t in _DIVISOR_RULES}


def _shown(number) -> str:
    """``str(number)`` for a guard's message, or, for a number past the
    int-string digit limit, "a number of about D digits" (its integer part's)."""
    try:
        return str(number)
    except ValueError:
        digits = int(abs(int(number)).bit_length() * math.log10(2)) + 1
        return f"a number of about {digits} digits"


def _check_rows(count, what, width=1, cells=None):
    """Refuse ``count`` (or more) ``what`` beyond ``MAX_TRACE_ROWS``, or their
    ``cells`` (by default ``width`` a row) beyond ``MAX_TRACE_CELLS``."""
    if count > MAX_TRACE_ROWS:
        raise IterationGuardError(
            f"the run would build at least {_shown(count)} {what} (limit {MAX_TRACE_ROWS})"
        )
    cells = count * width if cells is None else cells
    if cells > MAX_TRACE_CELLS:
        raise IterationGuardError(
            f"the run would build at least {_shown(cells)} cells in {_shown(count)} "
            f"{what} (limit {MAX_TRACE_CELLS} cells)"
        )


def _check_loop(seats):
    if seats > MAX_LOOP_SEATS:
        raise IterationGuardError(
            f"the run would award {seats} seats one at a time (limit {MAX_LOOP_SEATS})"
        )


def _check_house(house_size):
    if not _is_count(house_size):
        raise InputError("house size must be a non-negative integer")


def _check_call(tally, house_size, tie):
    """Refuse a fixed-house engine's arguments of the wrong domain type."""
    _check_type(tally, VoteTally, "tally")
    _check_type(tie, TiePolicy, "tie")
    _check_house(house_size)


def compute_quotas(tally: VoteTally, house_size: int) -> QuotaReport:
    """Ideal seat counts ``N * v_i / V`` with lower/upper integer bounds."""
    _check_type(tally, VoteTally, "tally")
    _check_house(house_size)
    total, lowers, rems = _quota_split(tally, house_size)
    return QuotaReport(
        party_ids=tally.party_ids,
        house_size=house_size,
        ideals=tuple(Fraction(house_size * v, total) for v in tally.votes),
        lowers=tuple(lowers),
        uppers=tuple(lower + (rem > 0) for lower, rem in zip(lowers, rems)),
        remainders=tuple(Fraction(rem, total) for rem in rems),
        ideal_quota=Fraction(total, house_size) if house_size > 0 else None,
    )


def _quota_split(tally, house_size):
    """``(V, lowers, remainders)``: the total vote V, and per party the lower
    quota ``N v_i // V`` and the remainder ``N v_i mod V`` (over V), in lists."""
    total = tally.total_votes
    splits = [divmod(house_size * v, total) for v in tally.votes]
    return total, [lower for lower, _ in splits], [rem for _, rem in splits]


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
    _check_call(tally, house_size, tie)
    _, seats, rem_nums = _quota_split(tally, house_size)
    leftover = house_size - sum(seats)
    events = []
    if leftover:
        order = _remainder_order(rem_nums, tie.ranks(tally))
        for i in order[:leftover]:
            seats[i] += 1
        boundary = rem_nums[order[leftover - 1]]
        taken = [i for i in order[:leftover] if rem_nums[i] == boundary]
        overhang = [i for i in order[leftover:] if rem_nums[i] == boundary]
        if overhang:
            events.append(_straddle_event(tally.party_ids, "residual seats", taken, overhang))
    return Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=HARE,
        form="largest-remainder",
        tie_events=tuple(events),
    )


def _remainder_order(rems, ranks):
    """Every party, largest remainder first, equal remainders by tie rank."""
    return sorted(range(len(rems)), key=lambda i: (-rems[i], ranks[i]))


def sequential_hare(
    tally: VoteTally,
    house_size: int,
    tie: TiePolicy = TiePolicy(),
    *,
    with_trace: bool = True,
) -> tuple[Allocation, SeatAwards | tuple[()]]:
    """One-seat-at-a-time restatement of the largest-remainder rule.

    Seat ``j`` goes to the party with the largest deficit
    ``N * v_i / V - n_i``.  Returns the allocation together with the award
    log, a :class:`SeatAwards` (which seat went where, at what deficit).
    With ``with_trace=False`` the same per-seat loop runs without building
    the log, and ``()`` comes back in its place; tie events are kept.
    """
    _check_call(tally, house_size, tie)
    if with_trace:
        _check_rows(house_size, "award log rows")
    _check_loop(house_size)
    seats = [0] * tally.party_count
    deficits = [house_size * v for v in tally.votes]
    columns = ([], []) if with_trace else None
    events = []
    _award_deficits(
        tally.party_ids, tally.total_votes, tie.ranks(tally), seats, deficits,
        None, range(1, house_size + 1), "award", columns, events,
    )
    allocation = Allocation(
        party_ids=tally.party_ids,
        seats=tuple(seats),
        house_size=house_size,
        method=HARE,
        form="sequential",
        tie_events=tuple(events),
    )
    if not with_trace:
        return allocation, ()
    return allocation, SeatAwards(tally.party_ids, *map(tuple, columns), tally.total_votes,
                                  house_size, False)  # the house does not grow


def _award_deficits(
    ids, total, ranks, seats, nums, growth, iterations, context, columns, events, names=0,
):
    """Give one seat per iteration ``j`` to the largest deficit.

    ``nums[i]`` is party i's deficit ``house * v_i / V - seats[i]`` over the
    common denominator ``total`` = V; only the winner's numerator moves.
    With ``growth`` (the votes v_i; None for a fixed house), each iteration
    first raises the house target by one and so every deficit by v_i.
    Equal deficits go to the lowest tie rank and are logged as a tie event;
    ``names`` counts the names that ``events`` list, tied or winning, and
    is charged against ``MAX_TRACE_CELLS``, and the events against
    ``MAX_TRACE_ROWS``, before each event is built.
    Updates ``seats`` and ``nums`` in place and appends to ``events`` and,
    unless ``columns`` is None, the winner's index and its deficit
    numerator to the two lists of ``columns``, a :class:`SeatAwards`'s
    ``winners`` and ``tops``.  Returns the new count of names.
    """
    if columns is not None:
        add_winner, add_top = columns[0].append, columns[1].append
    for j in iterations:
        if growth is not None:
            nums[:] = map(operator.add, nums, growth)
        top = max(nums)
        best = nums.index(top)
        if nums.count(top) > 1:
            tied = [i for i, num in enumerate(nums) if num == top]
            names += len(tied) + 1
            _check_rows(len(events) + 1, "tie events", cells=names)
            best = _tie(tied, ranks, ids, f"{context} {j}", events)
        if columns is not None:
            add_winner(best)
            add_top(top)
        seats[best] += 1
        nums[best] = top - total
    return names


def _tie(tied, ranks, ids, context, events):
    """The party of lowest tie rank among ``tied``, given in index order;
    appends the tie event, which lists them all."""
    best = min(tied, key=ranks.__getitem__)
    events.append(TieEvent(context, tuple(ids[i] for i in tied), (ids[best],)))
    return best


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
    (2n + 1)`` under Sainte-Laguë.  Each bid, scaled by ``2**shift`` and
    floored, is its party's key in a heap ordered by key, then tie rank;
    each seat goes to the top, whose next key replaces it in O(log k).
    Different bids differ by ``1 / (qN + p)**2`` or more, and ``2**shift``
    exceeds ``(qN + p)**2``, so the keys order the bids exactly.  Equal top
    bids go to the lowest tie rank (the top) and are logged as a ``seat j``
    tie event listing every tied party, read in O(k) only when a child of
    the top holds the same key.  The trace records, per seat, the full
    bidding table (present and next prices), kept as the winner of each
    seat: a :class:`DivisorSteps`, whose rows are built only when it is
    indexed or iterated.  Only the winner's prices move, so consecutive
    rows share the other ``Fraction`` objects (values and equality are as
    if each row were built afresh).
    """
    _check_call(tally, house_size, tie)
    _check_name(method, _SIGNPOSTS, "divisor method")
    p, q = _SIGNPOSTS[method].as_integer_ratio()
    votes = tally.votes
    if with_trace:
        _check_rows(house_size, "divisor table rows", 3 * len(votes))
    _check_loop(house_size)
    ids = tally.party_ids
    ranks = tie.ranks(tally)
    k = tally.party_count
    seats = [0] * k
    shift = 2 * (q * house_size + p).bit_length()
    # (-key, rank, party, q * seats + p), and two sentinels below every bid
    heap = [(-((v << shift) // p), r, i, p) for i, (v, r) in enumerate(zip(votes, ranks))]
    heap += [(1, k, k, 0)] * 2
    heapq.heapify(heap)
    winners, events, names = [], [], 0
    for step in range(1, house_size + 1):
        top, rank, best, den = heap[0]
        if heap[1][0] == top or heap[2][0] == top:  # an equal bid sits under one of them
            tied = sorted(i for key, _, i, _ in heap if key == top)
            names += len(tied) + 1
            _check_rows(len(events) + 1, "tie events", cells=names)
            _tie(tied, ranks, ids, f"seat {step}", events)
        if with_trace:
            winners.append(best)
        seats[best] += 1
        heapq.heapreplace(heap, (-((votes[best] << shift) // (den + q)), rank, best, den + q))
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
        steps=DivisorSteps(ids, votes, p, q, tuple(winners)) if with_trace else (),
        final_seats=tuple(seats),
    )
    return allocation, trace


def _groups(tally, base, t, ranks, down=False):
    """Seat thresholds from ``base`` seats on, in groups of coincident values.

    Holding n seats, party i gains one more when the multiplier reaches
    ``(n + t) V / v_i``, so its thresholds lie ``V / v_i`` apart.  Yields
    ``(value, parties)``: each threshold value as an exact `Fraction`, and
    the parties whose threshold it is, in tie-rank order.  It yields every
    threshold above ``base`` in ascending order, endlessly because some
    party has votes; with ``down``, the thresholds of the seats held instead,
    highest first, ending when no seat is left.  Parties without votes never
    gain a seat.

    The heap holds tuples ``(key, rank, party, numerator)``, compared in C:
    with t = p/q the threshold over V is ``(q n + p) / (q v_i)``, and the
    key is that numerator (negated with ``down``) scaled by ``2**shift``
    and floored by the denominator.  Two different thresholds over V differ
    by at least ``1 / (q v_i q v_j) >= 1 / (q max v)**2``, and ``2**shift >
    (q max v)**2``, so the keys keep their strict order and equal
    thresholds get equal keys.
    """
    p, q = t.numerator, t.denominator
    votes, total = tally.votes, tally.total_votes
    shift = 2 * (q * max(votes)).bit_length()
    heap = []
    for i, (v, b) in enumerate(zip(votes, base)):
        if v > 0 and (b or not down):  # down: a party holding none has none to shed
            num = -((b - 1) * q + p) if down else b * q + p
            heap.append(((num << shift) // (q * v), ranks[i], i, num))
    heapq.heapify(heap)
    while heap:
        key, _, first, num = heap[0]
        value = Fraction(total * (-num if down else num), q * votes[first])
        parties = []
        while heap and heap[0][0] == key:
            _, rank, i, num = heap[0]
            parties.append(i)
            num += q
            if down and num >= 0:  # that was the party's first seat
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, ((num << shift) // (q * votes[i]), rank, i, num))
        yield value, parties


def _fill(tally, base, t, ranks, count):
    """Take the ``count`` smallest seat thresholds above ``base`` seats.

    Returns ``(groups, overhang, following)``: the ``(value, parties)``
    groups taken in ascending order, the last one cut to fit; the parties
    of that group left out (a tie straddling the target); and the next
    threshold value above it.
    """
    groups, overhang = [], []
    stream = _groups(tally, base, t, ranks)
    while count > 0:
        value, parties = next(stream)
        groups.append((value, parties[:count]))
        overhang = parties[count:]
        count -= len(parties)
    return groups, overhang, next(stream)[0]


def _straddle_event(party_ids, context, taken, overhang):
    """Equal claims straddle the target: parties ``taken`` keep their seats
    and the tie policy de-assigns ``overhang``."""
    return TieEvent(
        context=context,
        tied=tuple(party_ids[i] for i in sorted(taken + overhang)),
        winners=tuple(party_ids[i] for i in sorted(taken)),
    )


def _round_threshold(rounding, round_threshold):
    """Resolve the rounding rule to a threshold t in (0, 1].

    ``round_t(x)`` awards s seats when ``x >= s - 1 + t``; t = 1 is floor
    rounding, t = 1/2 is round-to-nearest (exact halves round up).
    """
    _check_name(rounding, _ROUNDING_SIGNPOSTS, "rounding rule")
    if round_threshold is None:
        return _ROUNDING_SIGNPOSTS[rounding]
    if rounding == "floor":
        raise InputError("round_threshold applies to nearest rounding only")
    t = _exact(round_threshold, "round_threshold")
    if not 0 < t <= 1:
        raise InputError("round_threshold must lie in (0, 1]")
    return t


def _exact(x, name):
    """``x`` as a Fraction: only an int or a Fraction (not a bool) is exact."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"{name} must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


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
    _check_call(tally, house_size, tie)
    t = _round_threshold(rounding, round_threshold)
    seats, steps, taken, overhang, witness = _multiplicative_sweep(
        tally, house_size, t, tie.ranks(tally), with_trace
    )
    ids = tally.party_ids
    events = [_straddle_event(ids, f"multiplier {witness}", taken, overhang)] if overhang else []
    signpost_method = _SIGNPOST_METHODS.get(t)  # t is hashed once per call
    method = signpost_method or f"nearest-{t.numerator}/{t.denominator}"
    allocation = Allocation(
        party_ids=ids,
        seats=tuple(seats),
        house_size=house_size,
        method=method,
        form="multiplicative",
        tie_events=tuple(events),
    )
    trace = TraceTable(
        form="multiplicative",
        method=method,
        party_ids=ids,
        steps=tuple(steps),
        final_seats=tuple(seats),
        witness=witness,
        witness_is_exact=not overhang,
        implied_quota=_implied_quota(tally.total_votes, witness, t, signpost_method),
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
    _check_type(tally, VoteTally, "tally")
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


def _implied_quota(total, witness, t, signpost_method):
    """Votes-per-seat scale of the witness, where the rule has one.

    A divisor method's signpost t = p/q prices a seat at ``V / (q M)``
    votes: ``V / M`` for d'Hondt, ``V / (2M)`` for Sainte-Laguë.  Other
    thresholds (``signpost_method`` None) have no standard quota reading,
    so None is returned.
    """
    if signpost_method is None or witness is None or witness == 0:
        return None
    return Fraction(total * witness.denominator, t.denominator * witness.numerator)


def _multiplicative_sweep(tally, house_size, t, ranks, with_trace):
    """Round at the pilot multiplier M = N, then step to the house size.

    Rounding ``N * v_i / V`` misses the house by fewer than k seats.  While
    the counts over-fill it, whole groups of coincident thresholds are shed
    from the top (``lower`` rows); the seats still missing are then taken
    from the thresholds above (``raise`` rows), and a group straddling the
    house size is cut by the tie policy (``deassign``).  Returns ``(seats,
    steps, taken, overhang, witness)``: ``taken`` and ``overhang`` are the
    straddling group's parties that keep and lose their seats, both empty
    when no group straddles.
    """
    seats = _rounded(tally, house_size, t)
    count = sum(seats)
    steps = []
    if with_trace:
        # the start row, at most one lowered group per surplus seat, and
        # after a lowering overshoot fewer than k seats to raise
        k = tally.party_count
        surplus = count - house_size
        _check_rows(1 + abs(surplus) + (k - 1 if surplus > 0 else 0),
                    "multiplier search rows", k)
        steps.append(MultiplierStep("start", Fraction(house_size), tuple(seats), count))
    if count >= house_size:
        held = _groups(tally, seats, t, ranks, down=True)
        bottom = Fraction(0), ()  # below the lowest held threshold
        value, parties = next(held, bottom)  # the highest threshold still held
        while count > house_size:
            for i in parties:
                seats[i] -= 1
            count -= len(parties)
            value, parties = next(held, bottom)
            if with_trace:
                steps.append(MultiplierStep("lower", value, tuple(seats), count))
        if count == house_size:
            return seats, steps, [], [], value
    groups, overhang, _ = _fill(tally, seats, t, ranks, house_size - count)
    for value, parties in groups:
        for i in parties:
            seats[i] += 1
        count += len(parties)
        if with_trace:
            steps.append(MultiplierStep("raise", value, tuple(seats), count))
    witness, taken = groups[-1]
    if overhang and with_trace:
        steps[-1] = MultiplierStep("deassign", witness, steps[-1].seats, house_size)
    return seats, steps, taken, overhang, witness


def jump_allocation(
    tally: VoteTally, house_size: int, method: str, tie: TiePolicy = TiePolicy()
) -> Allocation:
    """The per-seat forms' allocation, reached by jump-and-step.

    Returns, field for field, what ``highest_averages(...,
    with_trace=False)[0]`` returns for d'Hondt and Sainte-Laguë and what
    ``sequential_hare(...)[0]`` returns for Hare: the same seats and every
    per-seat tie event.  The divisor methods take their seats from the
    multiplier sweep (pilot M = N, then whole threshold groups in (value,
    tie rank) order); Hare awards the lower quotas, then the fewer than k
    seats left by largest remainder.  Every tie event is rebuilt from
    groups of coincident values.  Costs O(k²) gcds for the divisor methods,
    taken and filtered in C, and O(k log k) for Hare, plus O(k) per tie
    event, whatever N is.
    """
    _check_call(tally, house_size, tie)
    _check_name(method, METHODS, "method")
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
    """The sweep's seats, with the table's tie events rebuilt from them.

    The sweep takes every threshold below its witness, then bids at it in
    (value, tie rank) order: the table's order, so the table's seats.  A
    group straddling seat N also holds the parties the sweep left out.
    """
    seats, _, taken, overhang, _ = _multiplicative_sweep(
        tally, house_size, t, ranks, False
    )
    if len(set(tally.votes)) < len(seats):  # equal votes tie at each level they share
        equal = {}
        for v, n in zip(tally.votes, seats):
            equal.setdefault(v, []).append(n)
        _check_levels(equal.values())  # a lower bound, before the O(k²) pair scan
    ties = _divisor_groups(tally, seats, t)
    if overhang:  # the parties left out still tied for seat N
        earlier = house_size - len(taken)
        ties = [group for group in ties if group[0] != earlier]
        ties.append((earlier, taken + overhang))
    return seats, _group_events(tally, ranks, "seat", ties, house_size)


def _divisor_groups(tally, seats, t):
    """Coincident thresholds among the first ``seats[i]`` of each party.

    With t = p/q, party i's n-th threshold is ``(q(n - 1) + p) * V / (q v_i)``.
    Parties i and j coincide exactly where ``q(n_i - 1) + p = m a`` and
    ``q(n_j - 1) + p = m b``, with ``a : b = v_i : v_j`` in lowest terms, at
    the value ``m V / (q g)``, g = gcd(v_i, v_j).  For t = 1 that is every
    m >= 1; for t = 1/2 every odd m, when a and b are odd.  Only a pair with
    ``g >= ceil(v_i / top_i)`` has m a within party i's seats: C finds those
    (a ``map`` of gcds, ``itertools.compress``).  Returns one ``(earlier,
    members)`` pair per value: the count of thresholds strictly below it
    and the parties holding it.
    """
    p, q = t.numerator, t.denominator
    votes = tally.votes
    k = len(votes)
    tops = [q * (n - 1) + p for n in seats]  # m a at each party's last seat
    groups = {}  # m / g of the value, in lowest terms -> parties
    found = 0
    for i, j in (  # i < j, both holding seats, g >= ceil(v_i / top_i)
        (i, j) for i, v in enumerate(votes) if seats[i]
        for j in itertools.compress(range(i + 1, k), map(
            (-(-v // tops[i])).__le__, map(math.gcd, itertools.repeat(v), votes[i + 1:])))
        if seats[j]
    ):
        g = math.gcd(votes[i], votes[j])
        a, b = votes[i] // g, votes[j] // g
        last = min(tops[i] // a, tops[j] // b)
        count = (last - 1) // q + 1  # the m in 1, 1 + q, ... up to last
        if not count or q == 2 and not a & b & 1:
            continue
        # Lower bounds on the events: each m is a value of its own, and a
        # value s parties share is found by s(s - 1)/2 <= (s - 1)k/2 pairs,
        # and its s - 1 events list (s - 1)(s + 4)/2 >= s(s - 1)/2 names.
        found += count
        _check_rows(max(count, 2 * found // k), "tie events", cells=found)
        for m in range(1, last + 1, q):
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
    _, seats, rems = _quota_split(tally, house_size)
    base = sum(seats)
    order = _remainder_order(rems, ranks)
    classes = {}  # remainder -> (deficits above it, parties)
    for position, i in enumerate(order):
        classes.setdefault(rems[i], (base + position, []))[1].append(i)
    _check_levels([seats[i] for i in members] for _, members in classes.values())
    lowers = sorted(seats)
    larger = collections.Counter()  # lower quotas of the classes walked so far
    groups = []
    for earlier, members in classes.values():  # largest remainder first
        if len(members) > 1:
            groups.append((earlier, members))
            held = sorted(members, key=seats.__getitem__, reverse=True)
            n = len(held)
            for c in range(1, seats[held[1]] + 1):
                # from level (c - 1) V + r up to c V + r, a deficit drops below
                # the level for each party holding c seats or more, and for
                # each party of a larger remainder holding c - 1
                earlier -= len(lowers) - bisect.bisect_left(lowers, c) + larger[c - 1]
                while seats[held[n - 1]] < c:
                    n -= 1
                groups.append((earlier, held[:n]))
        larger.update(map(seats.__getitem__, members))
    for i in order[:house_size - base]:
        seats[i] += 1
    return seats, _group_events(tally, ranks, "award", groups, house_size)


def _check_levels(classes):
    """Check the tie events of classes of parties that tie at each level
    c >= 1 their members hold, and the names they list; ``classes`` gives
    each class's seat counts.  A level that s members hold logs s - 1
    events, which list s, s - 1, ..., 2 tied names and a winner's."""
    events = names = 0
    for held in classes:
        if len(held) < 2:
            continue
        held = sorted(held, reverse=True) + [0]
        for s in range(2, len(held)):
            levels = held[s - 1] - held[s]  # the levels exactly s members hold
            events += levels * (s - 1)
            names += levels * (s - 1) * (s + 4) // 2
    _check_rows(events, "tie events", cells=names)


def _group_events(tally, ranks, context, groups, last):
    """The tie events a per-seat loop logs for groups of coincident values.

    A group of g parties whose value has ``earlier`` values before it fills
    steps ``earlier + 1 .. earlier + g``; at each step but the last the
    members left tie, listed in index order, and the lowest tie rank wins.
    The loop ends at step ``last``, so a group straddling it logs the ties
    up to ``last`` only.  Their total, and that of the names they list,
    tied or winning, is checked before any event is built.
    """
    ids = tally.party_ids
    counts = [(max(0, min(len(m) - 1, last - e)), len(m)) for e, m in groups]
    # n events of a group of g list g, g - 1, ..., g - n + 1 tied names and n winners
    _check_rows(sum(n for n, _ in counts), "tie events",
                cells=sum(n * (g + 1) - n * (n - 1) // 2 for n, g in counts))
    events = []
    for earlier, members in sorted(groups, key=lambda group: group[0]):
        left = sorted(members)
        for step in range(earlier + 1, min(earlier + len(left), last + 1)):
            left.remove(_tie(left, ranks, ids, f"{context} {step}", events))
    return events


#: The stop rules of :func:`seeded_divisor`.
_STOP_RULES = ("residual", "fixed")


def _check_seed(tally: VoteTally, seed: SeedDistribution, tie: TiePolicy):
    _check_type(tally, VoteTally, "tally")
    _check_type(seed, SeedDistribution, "seed")
    _check_type(tie, TiePolicy, "tie")
    if seed.party_ids != tally.party_ids:
        raise InputError("seed distribution refers to a different party set")
    for pid, v, d in zip(tally.party_ids, tally.votes, seed.district_seats):
        if v == 0 and d > 0:
            raise InputError(
                f"party {pid!r} holds district seats but polled zero votes; "
                "its overhang can never be diluted, so no top-up stop exists"
            )


def _dilution_bound(tally: VoteTally, seed: SeedDistribution) -> Fraction:
    """Smallest multiplier above which every residual can be below one.

    A party holding d seats keeps a residual of -1 or worse until
    ``M * v_i / V > d_i - 1``; above the maximum of those thresholds the
    rounding rule keeps every residual strictly inside (-1, 1).
    """
    total = tally.total_votes
    return max((Fraction((d - 1) * total, v)
                for v, d in zip(tally.votes, seed.district_seats) if v > 0 and d > 0),
               default=Fraction(0))


def seeded_sequential_hare(
    tally: VoteTally,
    seed: SeedDistribution,
    tie: TiePolicy = TiePolicy(),
    *,
    with_trace: bool = True,
) -> SeededRun:
    """Award top-up seats one at a time to the largest current deficit.

    Stop rules, in order of precedence at each iteration count j:

    * all residuals ``(D + j) * v_i / V - m_i`` strictly below 1 in
      absolute value  ->  ``all-residuals-below-one``;
    * j reached the configured ``cap``  ->  ``cap-reached``.

    With ``fixed_extra`` = T the run instead awards exactly T seats against
    the fixed house target D + T and reports ``fixed-extra-exhausted``;
    a T above ``MAX_LOOP_SEATS`` is refused before any award.
    With ``with_trace=False`` the same seats and tie events come back
    without the award log (``awards=()``).
    """
    _check_seed(tally, seed, tie)
    total = tally.total_votes
    ranks = tie.ranks(tally)
    m = list(seed.district_seats)
    columns, events = ([], []) if with_trace else None, []
    if seed.fixed_extra is not None:
        stop_j, reason = seed.fixed_extra, STOP_FIXED
        if stop_j > MAX_LOOP_SEATS:  # the award log has a row per seat
            raise IterationGuardError(
                f"{stop_j} fixed extra seats exceed the guard of "
                f"{MAX_LOOP_SEATS} top-up seats"
            )
        house, grows = seed.total + stop_j, False
        nums = [house * v - mi * total for v, mi in zip(tally.votes, m)]
        _award_deficits(
            tally.party_ids, total, ranks, m, nums, None, range(1, stop_j + 1),
            "top-up", columns, events,
        )
    else:
        # The residual stop needs D + j > bound (or D = 0), so it is tested
        # from j = ceil(bound) - D on; when it lies beyond the guard and no
        # cap ends the run first, refuse before any award.  No test can pass
        # below the next of that point, the cap and the guard, so the seats
        # up to it are awarded in one run.
        districts = seed.total
        house, grows = districts, True  # the house target at top-up j is D + j
        bound = _dilution_bound(tally, seed)
        earliest = math.ceil(bound) - districts
        capped = seed.cap is not None and seed.cap <= MAX_LOOP_SEATS
        doomed = math.floor(bound) - districts + 1 > MAX_LOOP_SEATS and not capped
        ends = (earliest, MAX_LOOP_SEATS) + (() if seed.cap is None else (seed.cap,))
        # nums[i] is the residual (D + j) * v_i / V - m_i over the denominator V
        nums = [districts * v - mi * total for v, mi in zip(tally.votes, m)]
        j = names = 0
        while True:
            if j >= earliest and all(-total < x < total for x in nums):  # |residual| < 1
                reason = STOP_RESIDUAL
                break
            if seed.cap is not None and j >= seed.cap:
                reason = STOP_CAP
                break
            if doomed or j >= MAX_LOOP_SEATS:
                raise IterationGuardError(
                    f"no residual stop within {MAX_LOOP_SEATS} top-up seats; "
                    f"the stop region begins above multiplier {_shown(bound)}"
                )
            step = max(1, min(ends) - j)
            names = _award_deficits(
                tally.party_ids, total, ranks, m, nums, tally.votes,
                range(j + 1, j + step + 1), "top-up", columns, events, names,
            )
            j += step
        stop_j = j

    extras = [mi - di for mi, di in zip(m, seed.district_seats)]
    awards = (SeatAwards(tally.party_ids, *map(tuple, columns), total, house, grows)
              if with_trace else ())
    return _report(tally, seed, extras, reason, seed.total + stop_j, events, awards=awards)


def _topups_at(tally, seed, t, M):
    """Top-up seats per party under multiplier M: round_t(M*v/V - d), min 0."""
    seats = _rounded(tally, M, t)
    return [max(0, s - d) for s, d in zip(seats, seed.district_seats)]


def seeded_divisor(
    tally: VoteTally,
    seed: SeedDistribution,
    rounding: str = "floor",
    stop: str = "residual",
    *,
    round_threshold=None,
    tie: TiePolicy = TiePolicy(),
    with_trace: bool = True,
) -> SeededRun:
    """Multiplier-form top-up: sweep M upward from D + 1 until the stop rule.

    ``stop="residual"`` accepts the first multiplier region where every
    residual ``M * v_i / V - m_i`` is strictly below one in absolute value.
    The accepted region is an open ray, so when the sweep origin D + 1 does
    not already qualify, the reported multiplier is the midpoint between
    the ray's infimum and the next seat threshold (any value in between is
    equivalent).

    ``stop="fixed"`` instead awards exactly ``seed.fixed_extra`` top-up
    seats — the multiplier stops at the corresponding seat threshold, even
    below D + 1.  Coincident thresholds straddling the target are resolved
    by the tie policy (de-assignment), recorded as a tie event.
    """
    _check_seed(tally, seed, tie)
    _check_name(stop, _STOP_RULES, "stop rule")
    if stop == "fixed" and seed.fixed_extra is None:
        raise InputError('stop="fixed" requires a fixed_extra seed distribution')
    if stop == "residual" and seed.fixed_extra is not None:
        raise InputError('a fixed_extra seed distribution requires stop="fixed"')
    if seed.cap is not None:
        raise InputError("cap applies to the sequential variant only")
    t = _round_threshold(rounding, round_threshold)
    if stop == "residual":
        return _divisor_residual_stop(tally, seed, t, with_trace)
    return _divisor_fixed_stop(tally, seed, t, tie, with_trace)


def _divisor_residual_stop(tally, seed, t, with_trace):
    ds = seed.district_seats
    start = Fraction(seed.total + 1)
    bound = _dilution_bound(tally, seed)
    lo = start if bound < start else bound
    # Only whole threshold groups are taken here, so tie order is moot.
    ranks = range(tally.party_count)
    held = [d + x for d, x in zip(ds, _topups_at(tally, seed, t, lo))]
    hi = next(_groups(tally, held, t, ranks))[0]
    witness = start if bound < start else (lo + hi) / 2
    extras = _topups_at(tally, seed, t, witness)
    sweep = []
    if with_trace:
        first = _topups_at(tally, seed, t, start)
        # one seat threshold per top-up seat gained in (start, witness]
        count = sum(extras) - sum(first)
        _check_rows(count, "sweep rows", tally.party_count)
        groups, *_ = _fill(tally, [d + x for d, x in zip(ds, first)], t, ranks, count)
        sweep = [SweepStep(start, tuple(first), sum(first))]
        for value, parties in groups:
            for i in parties:
                first[i] += 1
            sweep.append(SweepStep(value, tuple(first), sum(first)))
        if witness != start:  # strictly between two thresholds: its own row
            sweep.append(SweepStep(witness, tuple(extras), sum(extras)))
    return _report(tally, seed, extras, STOP_RESIDUAL, witness, sweep=tuple(sweep),
                   multiplier=witness, multiplier_interval=(lo, hi))


def _pilot(tally, seed, t):
    """The last integer multiplier under which fewer than ``fixed_extra``
    top-up seats are due (0 when none are), by bisection.

    Rounding puts each party's seats within (M v_i / V - t, M v_i / V + 1 - t],
    so with T = ``fixed_extra`` and D district seats ``M - kt - D < due(M) <=
    M + k(1 - t)``: fewer than T are due at M = T - k - 1 and at least T at
    M = T + D + k, which bracket the answer.  A party's thresholds lie
    V / v_i >= 1 apart, so at most one of each falls in the next unit of M:
    at most k seats remain to step.
    """
    def due(multiplier):
        return sum(_topups_at(tally, seed, t, multiplier))

    k, target = tally.party_count, seed.fixed_extra
    lo, hi = max(0, target - k - 1), target + seed.total + k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if due(mid) < target else (lo, mid)
    return lo


def _divisor_fixed_stop(tally, seed, t, tie, with_trace):
    if with_trace:  # one row per seat: walk up from M = 0
        _check_rows(seed.fixed_extra, "sweep rows", tally.party_count)
    extras = _topups_at(tally, seed, t, 0 if with_trace else _pilot(tally, seed, t))
    groups, overhang, following = _fill(
        tally, [d + x for d, x in zip(seed.district_seats, extras)], t,
        tie.ranks(tally), seed.fixed_extra - sum(extras),
    )
    sweep = []
    for value, parties in groups:
        for i in parties:
            extras[i] += 1
            if with_trace:
                sweep.append(SweepStep(value, tuple(extras), len(sweep) + 1))
    events = []
    witness = interval = None
    if groups:
        witness, taken = groups[-1]
        if overhang:
            context = f"multiplier {witness}"
            events.append(_straddle_event(tally.party_ids, context, taken, overhang))
        else:
            interval = (witness, following)
    # with no top-up seat (T = 0) there is no witness: residuals at M = 0
    return _report(tally, seed, extras, STOP_FIXED, witness or 0, events, sweep=tuple(sweep),
                   multiplier=witness, multiplier_interval=interval)


def _report(tally, seed, extras, reason, at, events=(), **fields):
    """The report of a stop after ``extras`` top-up seats, with the residuals
    ``M v_i / V - m_i`` taken at M = ``at``; ``fields`` are the ones only
    some forms fill (awards, sweep, multiplier and its bracket)."""
    a, b, total = at.numerator, at.denominator, tally.total_votes
    totals = tuple(d + x for d, x in zip(seed.district_seats, extras))
    return SeededRun(
        party_ids=tally.party_ids,
        district_seats=seed.district_seats,
        extra_seats=tuple(extras),
        totals=totals,
        stop_iteration=sum(extras),
        stop_reason=reason,
        residuals=tuple(
            Fraction(a * v - b * m * total, b * total) for v, m in zip(tally.votes, totals)
        ),
        tie_events=tuple(events),
        **fields,
    )
