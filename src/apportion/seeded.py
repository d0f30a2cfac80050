"""Two-stage allocation: district seats first, proportional top-up second.

Both entry points take a :class:`VoteTally` together with a
:class:`SeedDistribution` of already-won district seats ``d_i`` (total D)
and add compensatory seats so the final distribution approaches
proportionality, without ever taking a won seat away.

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
"""

from __future__ import annotations

import math
from fractions import Fraction

from .methods import (
    MAX_LOOP_SEATS,
    _award_deficits,
    _check_rows,
    _fill,
    _groups,
    _round_threshold,
    _rounded,
    _shown,
    _straddle_event,
)
from .types import (
    InputError,
    IterationGuardError,
    SeedDistribution,
    SeatAwards,
    SeededRun,
    STOP_CAP,
    STOP_FIXED,
    STOP_RESIDUAL,
    SweepStep,
    TiePolicy,
    VoteTally,
    _check_name,
    _check_type,
)

__all__ = ["seeded_divisor", "seeded_sequential_hare"]

#: Abort the sequential run if the residual stop is still unmet after this
#: many top-up seats (reachable only with extreme vote/district skew), and
#: refuse a larger ``fixed_extra``: the per-seat loop limit of :mod:`methods`.
MAX_TOPUP_ITERATIONS = MAX_LOOP_SEATS

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
    a T above ``MAX_TOPUP_ITERATIONS`` is refused before any award.
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
        if stop_j > MAX_TOPUP_ITERATIONS:  # the award log has a row per seat
            raise IterationGuardError(
                f"{stop_j} fixed extra seats exceed the guard of "
                f"{MAX_TOPUP_ITERATIONS} top-up seats"
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
        capped = seed.cap is not None and seed.cap <= MAX_TOPUP_ITERATIONS
        doomed = math.floor(bound) - districts + 1 > MAX_TOPUP_ITERATIONS and not capped
        ends = (earliest, MAX_TOPUP_ITERATIONS) + (() if seed.cap is None else (seed.cap,))
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
            if doomed or j >= MAX_TOPUP_ITERATIONS:
                raise IterationGuardError(
                    f"no residual stop within {MAX_TOPUP_ITERATIONS} top-up seats; "
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
