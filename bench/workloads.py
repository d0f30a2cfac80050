"""Benchmark workloads: generated inputs, call schedules and output checks.

A workload is one *pass*: a fixed list of calls into ``apportion.cli.main``.
The pass composition (shapes, house sizes, flags, formats) never depends
on the seed; the seed only draws the votes, district seats and suite
master seeds.  Keeping the composition fixed is what makes the latency
percentiles of a pass comparable from run to run.

Every call carries a checker.  It runs outside the timed region, raises
:class:`CheckFailed` on a wrong output, and returns an :class:`Outcome`
whose counts are read from the output itself, never from a timer.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import apportion
from apportion import VoteTally

class CheckFailed(Exception):
    """An output broke one of the invariants the benchmark checks."""


@dataclass(frozen=True)
class Outcome:
    """Work one call did, counted from its output."""

    seats: int = 0  # seats the call apportioned (top-up seats for two-stage)
    trials: int = 0
    topups: int = 0
    ties: int = 0


@dataclass(frozen=True)
class Call:
    label: str  # names the call's shape; unique within a pass
    argv: tuple[str, ...]
    check: Callable[[str], Outcome]


# ------------------------------------------------------------------ helpers


def _rng(workload: str, seed: int, label: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


def _write_csv(path: Path, votes, districts=None) -> str:
    head = "party,votes" + (",districts" if districts is not None else "")
    rows = [head]
    for i, v in enumerate(votes):
        row = f"P{i + 1},{v}"
        if districts is not None:
            row += f",{districts[i]}"
        rows.append(row)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def _tally(votes) -> VoteTally:
    return VoteTally(tuple(f"P{i + 1}" for i in range(len(votes))), tuple(votes))


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _table_rows(out: str, k: int):
    """Cells of the k party rows of a fixed-house table (lines 3..k+2)."""
    lines = out.splitlines()
    _require(len(lines) >= k + 2, "table output too short")
    return [re.split(r" {2,}", line.strip()) for line in lines[2 : k + 2]]


def _tie_lines(out: str) -> int:
    return sum(1 for line in out.splitlines() if line.startswith("tie ("))


def _trace_steps(trace: dict) -> int:
    return len(trace["awards"] if "awards" in trace else trace["steps"])


class _CrossForm:
    """Seat vectors of the *other* form of a method, via the public API.

    Divisor-table results are checked against the multiplicative form and
    back; largest-remainder results against sequential Hare and back.
    Results are memoised per input, because every pass of a run repeats
    the same inputs.
    """

    def __init__(self):
        self._memo = {}

    def seats(self, votes, house, method, reported_form) -> tuple[int, ...]:
        key = (tuple(votes), house, method, reported_form)
        if key not in self._memo:
            tally = _tally(votes)
            if method == apportion.HARE:
                if reported_form == "largest-remainder":
                    allocation, _ = apportion.sequential_hare(tally, house)
                else:
                    allocation = apportion.hare_niemeyer(tally, house)
            elif reported_form == "divisor":
                rounding = "floor" if method == apportion.DHONDT else "nearest"
                allocation, _ = apportion.multiplicative(
                    tally, house, rounding, with_trace=False
                )
            else:
                allocation, _ = apportion.highest_averages(
                    tally, house, method, with_trace=False
                )
            self._memo[key] = allocation.seats
        return self._memo[key]


def _check_seats(votes, house, method, form, seats, cross: _CrossForm):
    _require(len(seats) == len(votes), f"{method}: {len(seats)} parties reported")
    _require(sum(seats) == house, f"{method}: seats sum to {sum(seats)}, not {house}")
    if method == apportion.HARE:
        total = sum(votes)
        for v, n in zip(votes, seats):
            lower, rem = divmod(house * v, total)
            upper = lower if rem == 0 else lower + 1
            _require(lower <= n <= upper, f"hare outside quota: {n} not in [{lower}, {upper}]")
    other = cross.seats(votes, house, method, form)
    _require(tuple(seats) == other, f"{method} {form} {seats} != other form {other}")


# --------------------------------------------------------------- fixed house

# label -> (argv flags, method, form of the result); "compare" runs all three.
FIXED_FORMS = {
    "hare-lr": (("--method", "hare"), "hare", "largest-remainder"),
    "hare-seq": (("--method", "hare", "--form", "sequential"), "hare", "sequential"),
    "dhondt-div": (("--method", "dhondt"), "dhondt", "divisor"),
    "dhondt-mul": (("--method", "dhondt", "--form", "multiplicative"), "dhondt",
                   "multiplicative"),
    "sl-div": (("--method", "sainte-lague"), "sainte-lague", "divisor"),
    "sl-mul": (("--method", "sainte-lague", "--form", "multiplicative"),
               "sainte-lague", "multiplicative"),
    "compare": (("--compare",), None, None),
}
COMPARE_METHODS = ("hare", "dhondt", "sainte-lague")


def _draw_votes(rng: random.Random, k: int):
    return [rng.randint(1_000, 1_000_000) for _ in range(k)]


def _fixed_call(label, path, votes, house, form_key, fmt, cross, trace=False):
    flags, method, form = FIXED_FORMS[form_key]
    argv = (path, "--seats", str(house), "--format", fmt) + flags
    if trace:
        argv += ("--trace",)
    k = len(votes)

    def check(out: str) -> Outcome:
        if fmt == "json":
            payload = json.loads(out)
            _require(payload["tally"]["votes"] == list(votes), "tally echo differs")
            allocations = payload["allocations"]
            ties = len(payload["tie_events"])
            if trace:
                _require(_trace_steps(payload["trace"]) >= 1, "empty trace")
            results = [(a["method"], a["form"], a["seats"]) for a in allocations]
        else:
            rows = _table_rows(out, k)
            ties = _tie_lines(out)
            if method is None:
                results = [
                    (m, "largest-remainder" if m == "hare" else "divisor",
                     [int(r[5 + j]) for r in rows])
                    for j, m in enumerate(COMPARE_METHODS)
                ]
            else:
                results = [(method, form, [int(r[5]) for r in rows])]
        expected = COMPARE_METHODS if method is None else (method,)
        _require(tuple(m for m, _, _ in results) == expected, "unexpected methods")
        for m, f, seats in results:
            _check_seats(votes, house, m, f, seats, cross)
        return Outcome(seats=house, ties=ties)

    return Call(label, argv, check)


# Calls at N = 10^4 per party count.  The two k = 6 multiplicative calls
# run on P95_DRAWS vote draws: those 16 calls of like cost straddle
# the 95th percentile, so p95 reads the O(N) engines rather than the gap
# between two unlike calls.
LARGE_FORMS = {
    2: tuple(FIXED_FORMS),
    6: ("hare-lr", "hare-seq", "dhondt-div", "dhondt-mul", "sl-div", "sl-mul"),
    20: ("hare-lr", "hare-seq", "dhondt-div", "dhondt-mul"),
}
P95_DRAWS = 8


def fixed_house(seed: int, workdir: Path) -> list[Call]:
    """All six method/form pairs plus --compare, untraced, table and JSON.

    Per pass: 5 vote draws x k in {2, 6, 20} x N in {10, 598} x 7 x 2
    formats (420 small calls); at N = 10^4 the pairs of ``LARGE_FORMS``
    and the p95 draws (31 calls); at N = 10^5 the three per-seat engines
    for each k (9 calls): 460 calls.
    """
    cross = _CrossForm()
    calls = []
    for k in (2, 6, 20):
        for draw in range(5 + P95_DRAWS):
            votes = _draw_votes(_rng("fixed-house", seed, f"k{k}-d{draw}"), k)
            path = _write_csv(workdir / f"fh-k{k}-d{draw}.csv", votes)
            if draw < 5:
                for house in (10, 598):
                    for form_key in FIXED_FORMS:
                        for fmt in ("table", "json"):
                            label = f"k{k}-d{draw}-n{house}-{form_key}-{fmt}"
                            calls.append(_fixed_call(label, path, votes, house,
                                                     form_key, fmt, cross))
                continue
            if draw == 5:
                forms = LARGE_FORMS[k]
                for form_key in ("hare-seq", "dhondt-div", "dhondt-mul"):
                    fmt = "json" if k == 6 else "table"
                    calls.append(_fixed_call(f"k{k}-n100000-{form_key}-{fmt}", path,
                                             votes, 100_000, form_key, fmt, cross))
            elif k == 6:
                forms = ("dhondt-mul", "sl-mul")
            else:
                continue
            for i, form_key in enumerate(forms):
                fmt = ("table", "json")[(i + draw) % 2]
                calls.append(_fixed_call(f"k{k}-d{draw}-n10000-{form_key}-{fmt}", path,
                                         votes, 10_000, form_key, fmt, cross))
    return calls


# -------------------------------------------------------------------- traced

TRACED_FORMS = ("dhondt-div", "sl-div", "dhondt-mul", "sl-mul", "hare-seq")


def traced(seed: int, workdir: Path) -> list[Call]:
    """--trace runs: divisor table, multiplier sweep and award log.

    Per pass: 14 draws x k in {6, 20} x 5 engines x 2 formats at N = 10
    (280 calls); sweep and award log at N in {598, 2000} (24 + 12 calls);
    seven divisor tables at N in {598, 2000}, among them the d'Hondt table
    at k = 20, N = 2000 in JSON; and the k = 20, N = 598 award log in JSON
    for 12 more draws: 335 calls.  Those 14 award-log calls of like cost
    straddle the 95th percentile, above them only the ten heaviest calls.
    """
    cross = _CrossForm()
    calls = []
    big_tables = {
        (6, 598): (("dhondt-div", "table"), ("sl-div", "json")),
        (20, 598): (("dhondt-div", "json"), ("sl-div", "table")),
        (6, 2000): (("dhondt-div", "json"),),
        (20, 2000): (("sl-div", "table"), ("dhondt-div", "json")),
    }
    for k in (6, 20):
        for draw in range(14):
            votes = _draw_votes(_rng("traced", seed, f"k{k}-d{draw}"), k)
            path = _write_csv(workdir / f"tr-k{k}-d{draw}.csv", votes)
            houses = [10]
            if draw < 2 or k == 20:
                houses.append(598)
            if draw == 0:
                houses.append(2000)
            for house in houses:
                for form_key in TRACED_FORMS:
                    for fmt in ("table", "json"):
                        if house > 10 and form_key.endswith("-div"):
                            if (form_key, fmt) not in big_tables.get((k, house), ()):
                                continue
                            if draw != 0:
                                continue
                        if draw >= 2 and house == 598 and (form_key, fmt) != ("hare-seq",
                                                                             "json"):
                            continue
                        label = f"k{k}-d{draw}-n{house}-{form_key}-{fmt}"
                        calls.append(_fixed_call(label, path, votes, house, form_key,
                                                 fmt, cross, trace=True))
    return calls


# --------------------------------------------------------------------- suite

SUITE_TRIALS = 10


def suite(seed: int, workdir: Path) -> list[Call]:
    """400 serial ``--suite equivalence`` calls of 10 trials each.

    Each call has its own master seed drawn from the benchmark seed, so a
    pass covers 4,000 distinct trials of ``InstanceSpace.default``.
    """
    rng = _rng("suite", seed, "master-seeds")
    calls = []
    for i in range(400):
        master = rng.randrange(2**32)
        fmt = ("json", "table")[i % 2]
        argv = ("--suite", "equivalence", "--trials", str(SUITE_TRIALS),
                "--master-seed", str(master), "--format", fmt)
        space = apportion.InstanceSpace.default(trials=SUITE_TRIALS, master_seed=master)
        house_total = sum(space.trial_instance(t).house_size for t in range(SUITE_TRIALS))

        def check(out: str, fmt=fmt, master=master, house_total=house_total) -> Outcome:
            if fmt == "json":
                report = json.loads(out)["suite_report"]
                _require(report["space"]["master_seed"] == master, "wrong master seed")
                trials = report["trials_run"]
                agreements = report["agreements"]
                disagreements = len(report["disagreements"])
                quota_ok = report["stats"]["hare_quota_ok"]
            else:
                m = re.search(r"equivalence suite: (\d+) trials, master seed (\d+)\n"
                              r"agreements (\d+), disagreements (\d+)\n"
                              r"hare within quota: (\d+)/(\d+)\n", out)
                _require(m is not None, "unparseable suite table")
                trials, seen, agreements, disagreements, quota_ok, _ = map(int, m.groups())
                _require(seen == master, "wrong master seed")
            _require(trials == SUITE_TRIALS, f"{trials} trials run")
            _require(disagreements == 0, f"{disagreements} disagreements")
            _require(agreements == trials, "agreements do not cover the trials")
            _require(quota_ok == trials, f"hare within quota {quota_ok}/{trials}")
            return Outcome(seats=house_total, trials=trials)

        calls.append(Call(f"c{i}-{fmt}", argv, check))
    return calls


# ----------------------------------------------------------------- two-stage


def _two_stage_input(rng: random.Random, k: int, target: int):
    """Near-proportional districts plus overhang for the largest party.

    Every party but the largest holds ``floor(target * share)`` districts.
    The largest holds enough that its residual stays at or below -1 until
    the house reaches about ``D + target``, so a residual-stop run needs
    about ``target`` top-up seats.  Returns the votes, the districts and
    ``first_stop``, the smallest top-up count at which the residual stop
    can hold at all.
    """
    votes = [rng.randint(10_000, 1_000_000) for _ in range(k)]
    total = sum(votes)
    big = max(range(k), key=lambda i: votes[i])
    districts = [target * v // total for v in votes]
    others = sum(districts) - districts[big]
    vb = votes[big]
    districts[big] = ((target + others) * vb + total) // (total - vb) + 1
    house = sum(districts)
    first_stop = (districts[big] - 1) * total // vb - house + 1
    return votes, districts, first_stop


def _two_stage_call(label, path, votes, districts, flags, expect, extra):
    argv = (path, "--format", "json") + flags

    def check(out: str) -> Outcome:
        payload = json.loads(out)
        run = apportion.seeded_run_from_json(payload["seeded_run"])
        _require(run.district_seats == tuple(districts), "district seats differ")
        _require(run.stop_reason == expect, f"stop {run.stop_reason}, want {expect}")
        topups = sum(run.extra_seats)
        _require(run.stop_iteration == topups, "stop_iteration != top-up seats")
        if expect == "all-residuals-below-one":
            _require(all(abs(r) < 1 for r in run.residuals), "a residual is >= 1")
        else:
            _require(topups == extra, f"{topups} top-up seats, want {extra}")
        if "--form" not in flags:
            _require(len(run.awards) == topups, "award log length != top-up seats")
        return Outcome(seats=topups, topups=topups, ties=len(run.tie_events))

    return Call(label, argv, check)


def two_stage(seed: int, workdir: Path) -> list[Call]:
    """Two-stage runs over every stop rule, JSON output.

    Per input, seven calls: sequential residual, cap and fixed-extra
    stops, and divisor residual and fixed stops under d'Hondt and
    Sainte-Laguë.  Inputs: k in {3, 6, 12} with about 100 top-up seats
    (7 draws) and about 1,000 (3 draws), plus k in {3, 12} with about
    10,000: 32 inputs, 224 calls per pass.
    """
    calls = []
    plan = [(k, 100, d) for k in (3, 6, 12) for d in range(7)]
    plan += [(k, 1000, d) for k in (3, 6, 12) for d in range(3)]
    plan += [(3, 10_000, 0), (12, 10_000, 0)]
    for k, target, draw in plan:
        tag = f"k{k}-t{target}-d{draw}"
        votes, districts, first_stop = _two_stage_input(_rng("two-stage", seed, tag),
                                                        k, target)
        path = _write_csv(workdir / f"ts-{tag}.csv", votes, districts)
        cap = max(1, first_stop // 2)
        shapes = [
            ("seq-res", (), "all-residuals-below-one", None),
            ("seq-cap", ("--cap", str(cap)), "cap-reached", cap),
            ("seq-fix", ("--fixed-extra", str(target)), "fixed-extra-exhausted", target),
        ]
        for method, short in (("dhondt", "dh"), ("sainte-lague", "sl")):
            div = ("--method", method, "--form", "divisor")
            shapes.append((f"{short}-res", div, "all-residuals-below-one", None))
            shapes.append((f"{short}-fix", div + ("--stop", "fixed", "--fixed-extra",
                                                  str(target)),
                           "fixed-extra-exhausted", target))
        for name, flags, expect, extra in shapes:
            calls.append(_two_stage_call(f"{tag}-{name}", path, votes, districts,
                                         flags, expect, extra))
    return calls


BUILDERS = {
    "fixed-house": fixed_house,
    "suite": suite,
    "two-stage": two_stage,
    "traced": traced,
}
