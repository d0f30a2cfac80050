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

from .methods import _award_deficits, _fill, _round_threshold, _straddle_event
from .types import (
    InputError,
    IterationGuardError,
    SeedDistribution,
    SeededRun,
    STOP_CAP,
    STOP_FIXED,
    STOP_RESIDUAL,
    SweepStep,
    TiePolicy,
    VoteTally,
)

#: Abort the sequential run if the residual stop is still unmet after this
#: many top-up seats.  Reachable only with extreme vote/district skew.
MAX_TOPUP_ITERATIONS = 1_000_000

#: Refuse to build sweep traces with more rows than this.
MAX_SWEEP_ROWS = 50_000


def _check_seed(tally: VoteTally, seed: SeedDistribution):
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
    bound = Fraction(0)
    total = tally.total_votes
    for v, d in zip(tally.votes, seed.district_seats):
        if v > 0 and d > 0:
            candidate = Fraction((d - 1) * total, v)
            if candidate > bound:
                bound = candidate
    return bound


def seeded_sequential_hare(
    tally: VoteTally,
    seed: SeedDistribution,
    tie: TiePolicy = TiePolicy(),
    *,
    max_iterations: int = MAX_TOPUP_ITERATIONS,
) -> SeededRun:
    """Award top-up seats one at a time to the largest current deficit.

    Stop rules, in order of precedence at each iteration count j:

    * all residuals ``(D + j) * v_i / V - m_i`` strictly below 1 in
      absolute value  ->  ``all-residuals-below-one``;
    * j reached the configured ``cap``  ->  ``cap-reached``.

    With ``fixed_extra`` = T the run instead awards exactly T seats against
    the fixed house target D + T and reports ``fixed-extra-exhausted``.
    """
    _check_seed(tally, seed)
    total = tally.total_votes
    ranks = tie.ranks(tally)
    m = list(seed.district_seats)
    awards, events = [], []
    if seed.fixed_extra is not None:
        stop_j, reason = seed.fixed_extra, STOP_FIXED
        house = seed.total + stop_j
        nums = [house * v - mi * total for v, mi in zip(tally.votes, m)]
        _award_deficits(
            tally.party_ids, total, ranks, m, nums, house, range(1, stop_j + 1),
            "top-up", awards, events,
        )
    else:
        # nums[i] is the residual (D + j) * v_i / V - m_i over the denominator V
        nums = [seed.total * v - mi * total for v, mi in zip(tally.votes, m)]
        j = 0
        while True:
            if all(-total < x < total for x in nums):  # |residual| < 1, exactly
                reason = STOP_RESIDUAL
                break
            if seed.cap is not None and j >= seed.cap:
                reason = STOP_CAP
                break
            if j >= max_iterations:
                raise IterationGuardError(
                    f"no residual stop within {max_iterations} top-up seats; "
                    f"the stop region begins above multiplier "
                    f"{_dilution_bound(tally, seed)}"
                )
            j += 1
            nums = [x + v for x, v in zip(nums, tally.votes)]
            _award_deficits(
                tally.party_ids, total, ranks, m, nums, seed.total + j, (j,),
                "top-up", awards, events,
            )
        stop_j = j

    return SeededRun(
        party_ids=tally.party_ids,
        district_seats=seed.district_seats,
        extra_seats=tuple(mi - di for mi, di in zip(m, seed.district_seats)),
        totals=tuple(m),
        stop_iteration=stop_j,
        stop_reason=reason,
        residuals=tuple(Fraction(x, total) for x in nums),
        awards=tuple(awards),
        tie_events=tuple(events),
    )


def _topups_at(tally, seed, t, M):
    """Top-up seats per party under multiplier M: round_t(M*v/V - d), min 0."""
    total = tally.total_votes
    out = []
    for v, di in zip(tally.votes, seed.district_seats):
        if v == 0:
            out.append(0)
            continue
        x = M * Fraction(v, total) - di
        out.append(math.floor(x - t) + 1 if x >= t else 0)
    return out


def _next_threshold_above(tally, seed, t, lo: Fraction) -> Fraction:
    """Smallest top-up seat threshold strictly greater than ``lo``."""
    total = tally.total_votes
    best = None
    for v, di in zip(tally.votes, seed.district_seats):
        if v == 0:
            continue
        # thresholds sit at (d + s - 1 + t) * V / v for s = 1, 2, ...
        x = lo * Fraction(v, total) - di + 1 - t
        s = max(1, math.floor(x) + 1)
        value = (di + s - 1 + t) * Fraction(total, v)
        if best is None or value < best:
            best = value
    return best


def _threshold_values_between(tally, seed, t, lo, hi):
    """Distinct top-up thresholds in (lo, hi], refusing oversized traces."""
    total = tally.total_votes
    count = 0
    for v, di in zip(tally.votes, seed.district_seats):
        if v == 0:
            continue
        a = lo * Fraction(v, total) - di + 1 - t
        b = hi * Fraction(v, total) - di + 1 - t
        count += max(0, math.floor(b) - max(math.floor(a), 0))
    if count > MAX_SWEEP_ROWS:
        raise IterationGuardError(
            f"sweep trace would contain {count} rows (limit {MAX_SWEEP_ROWS}); "
            "rerun with with_trace=False"
        )
    values = set()
    for v, di in zip(tally.votes, seed.district_seats):
        if v == 0:
            continue
        a = lo * Fraction(v, total) - di + 1 - t
        b = hi * Fraction(v, total) - di + 1 - t
        for s in range(max(1, math.floor(a) + 1), math.floor(b) + 1):
            values.add((di + s - 1 + t) * Fraction(total, v))
    return sorted(values)


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
    _check_seed(tally, seed)
    if stop not in ("residual", "fixed"):
        raise InputError(f"unknown stop rule {stop!r}")
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
    total = tally.total_votes
    start = Fraction(seed.total + 1)
    bound = _dilution_bound(tally, seed)
    lo = start if bound < start else bound
    hi = _next_threshold_above(tally, seed, t, lo)
    witness = start if bound < start else (lo + hi) / 2
    extras = _topups_at(tally, seed, t, witness)
    totals = tuple(di + x for di, x in zip(seed.district_seats, extras))
    residuals = tuple(
        witness * Fraction(v, total) - mi for v, mi in zip(tally.votes, totals)
    )
    sweep = []
    if with_trace:
        sweep.append(
            SweepStep(
                multiplier=start,
                extra_seats=tuple(_topups_at(tally, seed, t, start)),
                total_extra=sum(_topups_at(tally, seed, t, start)),
            )
        )
        for value in _threshold_values_between(tally, seed, t, start, witness):
            xs = _topups_at(tally, seed, t, value)
            sweep.append(
                SweepStep(multiplier=value, extra_seats=tuple(xs), total_extra=sum(xs))
            )
        if witness != start and (not sweep or sweep[-1].multiplier != witness):
            sweep.append(
                SweepStep(
                    multiplier=witness,
                    extra_seats=tuple(extras),
                    total_extra=sum(extras),
                )
            )
    return SeededRun(
        party_ids=tally.party_ids,
        district_seats=seed.district_seats,
        extra_seats=tuple(extras),
        totals=totals,
        stop_iteration=sum(extras),
        stop_reason=STOP_RESIDUAL,
        residuals=residuals,
        sweep=tuple(sweep),
        multiplier=witness,
        multiplier_interval=(lo, hi),
    )


def _divisor_fixed_stop(tally, seed, t, tie, with_trace):
    total = tally.total_votes
    extras, snapshots, taken, overhang, following = _fill(
        tally, seed.district_seats, t, tie.ranks(tally), seed.fixed_extra, with_trace
    )
    sweep = [
        SweepStep(multiplier=m, extra_seats=s, total_extra=j)
        for j, (m, s) in enumerate(snapshots, start=1)
    ]
    events = []
    witness = interval = None
    if taken:
        witness = taken[0].value()
        if overhang:
            events.append(_straddle_event(tally.party_ids, witness, taken, overhang))
        else:
            interval = (witness, following.value())
    totals = tuple(di + x for di, x in zip(seed.district_seats, extras))
    eval_at = witness if witness is not None else Fraction(0)
    residuals = tuple(
        eval_at * Fraction(v, total) - mi for v, mi in zip(tally.votes, totals)
    )
    return SeededRun(
        party_ids=tally.party_ids,
        district_seats=seed.district_seats,
        extra_seats=tuple(extras),
        totals=totals,
        stop_iteration=seed.fixed_extra,
        stop_reason=STOP_FIXED,
        residuals=residuals,
        sweep=tuple(sweep),
        multiplier=witness,
        multiplier_interval=interval,
        tie_events=tuple(events),
    )
