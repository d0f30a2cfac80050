"""Command-line front end: CSV votes in, allocations and reports out.

Fixed-house runs need ``--seats``; a districts column in the input
switches to the two-stage (seeded) engines; ``--suite`` runs the oracle
suites instead of allocating.  ``--format json`` emits the canonical
report (exact rationals as num/den pairs); the default table output may
append decimal approximations, always marked with ``~``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
import traceback
from dataclasses import dataclass

from . import serialize
from .methods import (
    DHONDT,
    HARE,
    SAINTE_LAGUE,
    compute_quotas,
    hare_niemeyer,
    highest_averages,
    multiplicative,
    sequential_hare,
)
from .oracle import (
    InstanceSpace,
    bias_montecarlo,
    equivalence_suite,
    find_house_monotonicity_violation,
)
from .seeded import seeded_divisor, seeded_sequential_hare
from .types import (
    Allocation,
    InputError,
    IterationGuardError,
    SeedDistribution,
    TiePolicy,
    VoteTally,
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: every flag, with defaults applied."""

    input_path: str | None
    method: str
    form: str | None
    seats: int | None
    tie_mode: str
    tie_seed: int | None
    districts_col: str
    cap: int | None
    fixed_extra: int | None
    stop: str | None
    compare: bool
    trace: bool
    format: str
    suite: str | None
    trials: int
    master_seed: int
    jobs: int


def parse_votes(source, districts_col: str = "districts"):
    """Parse ``party,votes[,districts]`` CSV into a tally.

    ``source`` is text or a file-like object.  Returns
    ``(VoteTally, SeedDistribution | None)`` — the seed distribution is
    present exactly when the districts column is.  Party ids are opaque
    and preserved verbatim; counts must be base-10 non-negative integers.
    A leading UTF-8 byte order mark, as spreadsheet exports write, is
    skipped.
    """
    if not isinstance(source, str):
        source = source.read()
    source = io.StringIO(source.removeprefix("\ufeff"))
    rows = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(source), start=1)
        if any(cell.strip() for cell in row)
    ]
    if not rows:
        raise InputError("empty input")
    header_line, header = rows[0]
    names = [cell.strip().lower() for cell in header]
    want = districts_col.strip().lower()
    if len(names) < 2 or names[0] != "party" or names[1] != "votes":
        raise InputError(
            f"line {header_line}: header must be party,votes[,{districts_col}]"
        )
    if len(names) == 2:
        has_districts = False
    elif len(names) == 3 and names[2] == want:
        has_districts = True
    else:
        raise InputError(f"line {header_line}: unexpected columns {names[2:]}")
    parties, votes, districts = [], [], []
    seen = set()
    for lineno, row in rows[1:]:
        if len(row) != len(names):
            raise InputError(
                f"line {lineno}: expected {len(names)} fields, got {len(row)}"
            )
        pid = row[0]
        if pid in seen:
            raise InputError(f"line {lineno}: duplicate party {pid!r}")
        seen.add(pid)
        parties.append(pid)
        votes.append(_parse_count(lineno, "votes", row[1]))
        if has_districts:
            districts.append(_parse_count(lineno, districts_col, row[2]))
    if not parties:
        raise InputError("no data rows")
    tally = VoteTally(tuple(parties), tuple(votes))
    seed = SeedDistribution(tuple(parties), tuple(districts)) if has_districts else None
    return tally, seed


def _parse_count(lineno, what, text):
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise InputError(
            f"line {lineno}: {what} must be a base-10 non-negative integer, got {text!r}"
        )
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise InputError(
            f"line {lineno}: {what} has {len(text)} digits, over the "
            f"{sys.get_int_max_str_digits()}-digit limit"
        ) from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 1
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="apportion",
        description="Exact proportional seat apportionment "
        "(largest-remainder, d'Hondt-Jefferson, Sainte-Laguë).",
    )
    parser.add_argument(
        "input", nargs="?",
        help="votes CSV with header party,votes[,districts]; '-' reads stdin",
    )
    parser.add_argument("--method", choices=[HARE, DHONDT, SAINTE_LAGUE])
    parser.add_argument(
        "--form", choices=["divisor", "multiplicative", "sequential"],
        help="sequential applies to hare; divisor/multiplicative to the others",
    )
    parser.add_argument("--seats", type=int, help="house size for fixed-house runs")
    parser.add_argument("--tie", choices=["deterministic", "random"],
                        default="deterministic")
    parser.add_argument("--seed", type=int, help="rng seed for --tie random")
    parser.add_argument("--districts-col", default="districts",
                        help="name of the district-seats column")
    parser.add_argument("--cap", type=int, help="cap on two-stage top-up seats")
    parser.add_argument("--fixed-extra", type=int,
                        help="exact number of two-stage top-up seats")
    parser.add_argument("--stop", choices=["residual", "fixed"],
                        help="two-stage stop rule (default residual)")
    parser.add_argument("--compare", action="store_true",
                        help="run all three methods side by side")
    parser.add_argument("--trace", action="store_true",
                        help="include the step-by-step table")
    parser.add_argument("--format", choices=["table", "json"], default="table")
    parser.add_argument("--suite", choices=["equivalence", "bias", "paradox"],
                        help="run an oracle suite instead of allocating")
    parser.add_argument("--trials", type=int, help="suite size (default 10000)")
    parser.add_argument("--master-seed", type=int,
                        help="suite master seed (default 0)")
    parser.add_argument("--jobs", type=int,
                        help="worker processes for suites (default 1)")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.suite:
        blocked = [
            ("--method", args.method),
            ("--form", args.form),
            ("--seats", args.seats),
            ("--seed", args.seed),
            ("--cap", args.cap),
            ("--fixed-extra", args.fixed_extra),
            ("--stop", args.stop),
        ]
        for flag, value in blocked:
            if value is not None:
                raise InputError(f"{flag} does not apply to --suite runs")
        if args.compare or args.trace:
            raise InputError("--compare and --trace do not apply to --suite runs")
        if args.tie != "deterministic":
            raise InputError(
                "--tie does not apply to --suite runs (each trial draws its own)"
            )
        if args.input is not None:
            raise InputError("--suite runs take no input file")
    else:
        if args.input is None:
            raise InputError("an input file (or '-') is required unless --suite is given")
        for flag, value in (
            ("--trials", args.trials),
            ("--master-seed", args.master_seed),
            ("--jobs", args.jobs),
        ):
            if value is not None:
                raise InputError(f"{flag} applies to --suite runs only")
    if args.compare:
        if args.method is not None:
            raise InputError("--compare runs all methods; drop --method")
        if args.form is not None:
            raise InputError("--compare uses each method's canonical form; drop --form")
        if args.trace:
            raise InputError("--trace applies to single-method runs")
    if args.tie == "random":
        if args.seed is None:
            raise InputError("--tie random requires --seed")
        if not 0 <= args.seed < 2**64:
            raise InputError("--seed must fit in 64 bits")
    elif args.seed is not None:
        raise InputError("--seed applies to --tie random only")
    if args.seats is not None and args.seats < 0:
        raise InputError("--seats must be non-negative")
    if args.cap is not None and args.cap < 0:
        raise InputError("--cap must be non-negative")
    if args.fixed_extra is not None and args.fixed_extra < 0:
        raise InputError("--fixed-extra must be non-negative")
    if args.cap is not None and args.fixed_extra is not None:
        raise InputError("--cap and --fixed-extra are mutually exclusive")
    if args.stop == "fixed" and args.fixed_extra is None:
        raise InputError("--stop fixed requires --fixed-extra")
    if args.stop == "residual" and args.fixed_extra is not None:
        raise InputError("--fixed-extra implies --stop fixed")
    if args.trials is not None and args.trials < 0:
        raise InputError("--trials must be non-negative")
    if args.master_seed is not None and args.master_seed < 0:
        raise InputError("--master-seed must be non-negative")
    if args.jobs is not None and args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    return RunConfig(
        input_path=args.input,
        method=args.method or HARE,
        form=args.form,
        seats=args.seats,
        tie_mode=args.tie,
        tie_seed=args.seed,
        districts_col=args.districts_col,
        cap=args.cap,
        fixed_extra=args.fixed_extra,
        stop=args.stop,
        compare=args.compare,
        trace=args.trace,
        format=args.format,
        suite=args.suite,
        trials=args.trials if args.trials is not None else 10_000,
        master_seed=args.master_seed if args.master_seed is not None else 0,
        jobs=args.jobs if args.jobs is not None else 1,
    )


def _tie_policy(config: RunConfig) -> TiePolicy:
    if config.tie_mode == "random":
        return TiePolicy("random", config.tie_seed)
    return TiePolicy()


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def run(config: RunConfig) -> str:
    """Execute one resolved invocation and return the rendered report."""
    if config.suite:
        return _run_suite(config)
    tally, seed = parse_votes(_read_input(config.input_path), config.districts_col)
    if seed is not None:
        return _run_seeded(config, tally, seed)
    return _run_fixed_house(config, tally)


# ---------------------------------------------------------------- fixed house


def _run_fixed_house(config, tally):
    if config.cap is not None or config.fixed_extra is not None or config.stop:
        raise InputError("two-stage options require a districts column")
    if config.seats is None:
        raise InputError("--seats is required without a districts column")
    tie = _tie_policy(config)
    report = compute_quotas(tally, config.seats)
    trace = None
    if config.compare:
        allocations = [
            hare_niemeyer(tally, config.seats, tie),
            highest_averages(tally, config.seats, DHONDT, tie, with_trace=False)[0],
            highest_averages(tally, config.seats, SAINTE_LAGUE, tie, with_trace=False)[0],
        ]
    else:
        allocation, trace = _single_run(config, tally, tie)
        allocations = [allocation]
    if config.format == "json":
        return _json_report(config, tally, report, allocations,
                            trace=trace, seeded_run=None)
    return _fixed_house_table(config, tally, report, allocations, trace)


def _single_run(config, tally, tie):
    """One method/form dispatch; returns (allocation, trace-or-None)."""
    n = config.seats
    if config.method == HARE:
        if config.form is None:
            if config.trace:
                raise InputError(
                    "the largest-remainder form has no step trace; "
                    "use --form sequential"
                )
            return hare_niemeyer(tally, n, tie), None
        if config.form == "sequential":
            allocation, awards = sequential_hare(tally, n, tie)
            trace = None
            if config.trace:
                trace = {"form": "sequential", "method": HARE, "awards": awards}
            return allocation, trace
        raise InputError("hare supports --form sequential only")
    if config.form == "sequential":
        raise InputError("--form sequential applies to hare only")
    if config.form == "multiplicative":
        rounding = "floor" if config.method == DHONDT else "nearest"
        engine = "sweep" if config.trace else "threshold"
        allocation, trace = multiplicative(
            tally, n, rounding, tie=tie, engine=engine, with_trace=config.trace
        )
        return allocation, trace if config.trace else None
    # default form for the divisor methods is the divisor table itself
    allocation, trace = highest_averages(
        tally, n, config.method, tie, with_trace=config.trace
    )
    return allocation, trace if config.trace else None


# ------------------------------------------------------------------ two-stage


def _run_seeded(config, tally, seed):
    if config.seats is not None:
        raise InputError(
            "--seats does not apply to two-stage runs (the house size is derived)"
        )
    if config.compare:
        raise InputError("--compare applies to fixed-house runs")
    tie = _tie_policy(config)
    seed = dataclasses.replace(seed, cap=config.cap, fixed_extra=config.fixed_extra)
    form = config.form or "sequential"
    if form == "sequential":
        if config.method != HARE:
            raise InputError(
                "sequential two-stage runs use hare deficits; "
                "pick --form divisor with --method dhondt or sainte-lague"
            )
        run_result = seeded_sequential_hare(tally, seed, tie)
        method, form_label = HARE, "seeded-sequential"
    else:
        if config.method == HARE:
            raise InputError(
                "two-stage divisor runs need --method dhondt or sainte-lague"
            )
        if config.cap is not None:
            raise InputError("--cap applies to sequential two-stage runs only")
        rounding = "floor" if config.method == DHONDT else "nearest"
        stop = config.stop or ("fixed" if config.fixed_extra is not None else "residual")
        run_result = seeded_divisor(
            tally, seed, rounding, stop, tie=tie, with_trace=config.trace
        )
        method, form_label = config.method, "seeded-divisor"
    allocation = Allocation(
        party_ids=tally.party_ids,
        seats=run_result.totals,
        house_size=run_result.house_size,
        method=method,
        form=form_label,
        tie_events=run_result.tie_events,
    )
    report = compute_quotas(tally, run_result.house_size)
    if config.format == "json":
        return _json_report(config, tally, report, [allocation],
                            trace=None, seeded_run=run_result)
    return _seeded_table(config, tally, report, allocation, run_result)


# --------------------------------------------------------------------- suites


def _space(config) -> InstanceSpace:
    return InstanceSpace.default(trials=config.trials, master_seed=config.master_seed)


def _run_suite(config):
    space = _space(config)
    if config.suite == "equivalence":
        report = equivalence_suite(space, jobs=config.jobs)
        if config.format == "json":
            return serialize.dumps(
                {"config": _config_payload(config), "suite_report": report}
            )
        return _suite_counts_table(report)
    if config.suite == "bias":
        report = bias_montecarlo(space, jobs=config.jobs)
        if config.format == "json":
            return serialize.dumps(
                {"config": _config_payload(config), "suite_report": report}
            )
        return _bias_table(report)
    searches = []
    for method in (HARE, DHONDT, SAINTE_LAGUE):
        witness = find_house_monotonicity_violation(space, method)
        searches.append({"method": method, "witness": witness})
    if config.format == "json":
        return serialize.dumps(
            {"config": _config_payload(config), "suite": "paradox", "space": space,
             "searches": searches}
        )
    return _paradox_table(space, searches)


# ------------------------------------------------------------------ rendering


def _fmt(value) -> str:
    """Exact rendering; non-integers get a ~ approximation appended."""
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    if value.denominator == 1:
        return str(value.numerator)
    try:
        approx = f"{float(value):.4f}"
    except OverflowError:  # beyond the float range: round exactly instead
        whole, frac = divmod(abs(round(value * 10_000)), 10_000)
        approx = f"{'-' if value < 0 else ''}{whole}.{frac:04d}"
    return f"{value} (~{approx})"


def _layout(rows) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _tie_lines(allocations):
    lines = []
    for allocation in allocations:
        for event in allocation.tie_events:
            lines.append(
                f"tie ({allocation.method} {event.context}): "
                f"{' '.join(event.tied)} -> {' '.join(event.winners)}"
            )
    return lines


def _fixed_house_table(config, tally, report, allocations, trace):
    lines = [
        f"house size {report.house_size}, total votes {tally.total_votes}, "
        f"ideal quota {_fmt(report.ideal_quota)}"
    ]
    head = ["party", "votes", "ideal", "lower", "upper"]
    if config.compare:
        head += [a.method for a in allocations] + ["differs"]
    else:
        head += ["seats", "residual"]
    rows = [head]
    residuals = [report.residuals_for(a) for a in allocations]
    for i, pid in enumerate(tally.party_ids):
        row = [
            pid,
            str(tally.votes[i]),
            _fmt(report.ideals[i]),
            str(report.lowers[i]),
            str(report.uppers[i]),
        ]
        if config.compare:
            seats = [a.seats[i] for a in allocations]
            row += [str(s) for s in seats]
            row.append("*" if len(set(seats)) > 1 else "")
        else:
            row += [str(allocations[0].seats[i]), _fmt(residuals[0][i])]
        rows.append(row)
    lines.append(_layout(rows))
    if not config.compare:
        a = allocations[0]
        lines.append(f"method {a.method} ({a.form})")
    lines.extend(_tie_lines(allocations))
    if trace is not None:
        lines.append("")
        lines.append(_trace_text(trace))
    return "\n".join(lines) + "\n"


def _trace_text(trace) -> str:
    if isinstance(trace, dict):  # sequential award log
        lines = ["award log (largest deficit first):"]
        for award in trace["awards"]:
            lines.append(
                f"  seat {award.iteration}: -> {award.party} "
                f"(deficit {_fmt(award.deficit)})"
            )
        return "\n".join(lines)
    if trace.form == "divisor":
        blocks = [f"divisor table ({trace.method}):"]
        for step in trace.steps:
            rows = [
                [""] + list(trace.party_ids),
                ["seats"] + [str(s) for s in step.seats_before],
                ["present"] + [_fmt(q) for q in step.present_quota],
                ["next"] + [_fmt(q) for q in step.next_quota],
            ]
            blocks.append(f"seat {step.step} -> {step.winner}")
            blocks.append(_layout(rows))
        return "\n".join(blocks)
    lines = [f"multiplier search ({trace.method}):"]
    for step in trace.steps:
        seats = ",".join(str(s) for s in step.seats)
        lines.append(
            f"  {step.action:<8} M={_fmt(step.multiplier)}  "
            f"seats=({seats})  total={step.total}"
        )
    exact = "exact" if trace.witness_is_exact else "over-fills before de-assignment"
    lines.append(f"witness M={_fmt(trace.witness)} ({exact})")
    if trace.implied_quota is not None:
        lines.append(f"implied quota {_fmt(trace.implied_quota)}")
    return "\n".join(lines)


def _seeded_table(config, tally, report, allocation, run_result):
    d_total = sum(run_result.district_seats)
    x_total = sum(run_result.extra_seats)
    lines = [
        f"two-stage run: {d_total} district + {x_total} top-up = "
        f"house {run_result.house_size}"
    ]
    rows = [["party", "votes", "districts", "top-up", "total", "residual"]]
    for i, pid in enumerate(tally.party_ids):
        rows.append(
            [
                pid,
                str(tally.votes[i]),
                str(run_result.district_seats[i]),
                str(run_result.extra_seats[i]),
                str(run_result.totals[i]),
                _fmt(run_result.residuals[i]),
            ]
        )
    lines.append(_layout(rows))
    lines.append(
        f"stopped after {run_result.stop_iteration} top-up seat(s): "
        f"{run_result.stop_reason}"
    )
    if run_result.multiplier is not None:
        lines.append(f"multiplier {_fmt(run_result.multiplier)}")
    if run_result.multiplier_interval is not None:
        lo, hi = run_result.multiplier_interval
        lines.append(f"multiplier bracket ({_fmt(lo)}, {_fmt(hi)})")
    lines.extend(_tie_lines([allocation]))
    if config.trace and run_result.awards:
        lines.append("award log:")
        for award in run_result.awards:
            lines.append(
                f"  top-up {award.iteration} (house {award.house_target}) -> "
                f"{award.party} (deficit {_fmt(award.deficit)})"
            )
    if config.trace and run_result.sweep:
        lines.append("multiplier sweep:")
        for step in run_result.sweep:
            extras = ",".join(str(x) for x in step.extra_seats)
            lines.append(
                f"  M={_fmt(step.multiplier)}  top-up=({extras})  "
                f"total={step.total_extra}"
            )
    return "\n".join(lines) + "\n"


def _suite_counts_table(report) -> str:
    stats = report.stats
    lines = [
        f"equivalence suite: {report.trials_run} trials, "
        f"master seed {report.space.master_seed}",
        f"agreements {report.agreements}, disagreements {len(report.disagreements)}",
        f"hare within quota: {stats['hare_quota_ok']}/{report.trials_run}",
    ]
    for disagreement in report.disagreements[:10]:
        trial = disagreement.trial
        for mismatch in disagreement.mismatches:
            lines.append(
                f"  trial {trial.index} ({mismatch.comparison}): "
                f"{mismatch.left} != {mismatch.right}"
            )
    return "\n".join(lines) + "\n"


def _bias_table(report) -> str:
    lines = [
        f"bias suite: {report.trials_run} trials, "
        f"master seed {report.space.master_seed}",
        "mean seat advantage of dhondt, by vote-share rank "
        "(positive favours dhondt):",
    ]
    for rank, entry in report.stats["by_rank"].items():
        lines.append(
            f"  rank {rank} ({entry['trials']} trials): "
            f"vs hare {_fmt(entry['mean_dhondt_minus_hare'])}, "
            f"vs sainte-lague {_fmt(entry['mean_dhondt_minus_sainte_lague'])}"
        )
    largest = report.stats.get("mean_seats_largest")
    if largest:
        lines.append(
            "mean seats, largest party: "
            + ", ".join(f"{m} {_fmt(v)}" for m, v in largest.items())
        )
    return "\n".join(lines) + "\n"


def _paradox_table(space, searches) -> str:
    lines = [f"paradox search: {space.trials} trials, master seed {space.master_seed}"]
    for search in searches:
        witness = search["witness"]
        if witness is None:
            lines.append(f"  {search['method']}: no witness found")
        else:
            trial = witness.trial
            lines.append(
                f"  {search['method']}: trial {trial.index}, votes "
                f"{trial.tally.votes}, house {witness.smaller_house} -> "
                f"{witness.smaller_house + 1}: {witness.seats_smaller} -> "
                f"{witness.seats_larger} (loses: {' '.join(witness.losers)})"
            )
    return "\n".join(lines) + "\n"


def _config_payload(config) -> dict:
    """Config echo for JSON reports.

    ``jobs`` is dropped: it only sets how many worker processes a suite
    uses, and the same invocation must emit identical bytes at any value.
    """
    payload = dataclasses.asdict(config)
    payload.pop("jobs")
    return payload


def _json_report(config, tally, report, allocations, trace, seeded_run) -> str:
    tie_events = []
    for allocation in allocations:
        for event in allocation.tie_events:
            tie_events.append(
                {
                    "source": f"{allocation.method}/{allocation.form}",
                    "context": event.context,
                    "tied": list(event.tied),
                    "winners": list(event.winners),
                }
            )
    payload = {
        "config": _config_payload(config),
        "tally": {
            "party_ids": list(tally.party_ids),
            "votes": list(tally.votes),
            "total_votes": tally.total_votes,
        },
        "allocations": allocations,
        "quota_report": report,
        "tie_events": tie_events,
    }
    if trace is not None:
        payload["trace"] = trace
    if seeded_run is not None:
        payload["seeded_run"] = seeded_run
    return serialize.dumps(payload)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        sys.stdout.write(run(config))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IterationGuardError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - unexpected execution errors
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
