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
import functools
import io
import itertools
import operator
import sys

from . import serialize
from .methods import (
    DHONDT,
    HARE,
    METHODS,
    SAINTE_LAGUE,
    _ROUNDING,
    compute_quotas,
    hare_niemeyer,
    highest_averages,
    jump_allocation,
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
    AwardLog,
    InputError,
    IterationGuardError,
    SeedDistribution,
    TiePolicy,
    VoteTally,
)


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
    """A fresh parser of the CLI's flags; :func:`main` keeps its own."""
    parser = _ArgumentParser(
        prog="apportion",
        description="Exact proportional seat apportionment "
        "(largest-remainder, d'Hondt-Jefferson, Sainte-Laguë).",
    )
    parser.add_argument(
        "input_path", nargs="?", metavar="input",
        help="votes CSV with header party,votes[,districts]; '-' reads stdin",
    )
    parser.add_argument("--method", choices=[HARE, DHONDT, SAINTE_LAGUE])
    parser.add_argument(
        "--form", choices=["divisor", "multiplicative", "sequential"],
        help="sequential applies to hare; divisor/multiplicative to the others",
    )
    parser.add_argument("--seats", type=int, help="house size for fixed-house runs")
    parser.add_argument("--tie", choices=["deterministic", "random"],
                        default="deterministic", dest="tie_mode")
    parser.add_argument("--seed", type=int, dest="tie_seed", metavar="SEED",
                        help="rng seed for --tie random")
    parser.add_argument("--districts-col", help="name of the district-seats column")
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
                        help="suite worker processes (default 1, at most one per CPU)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on the first call in a process.

    Building one costs about 0.5 ms, as much as a small run, and parsing
    leaves it unchanged: each call gets a fresh namespace, no default is
    mutable, and ``--help`` lays its text out when it prints, so it still
    follows the terminal width of that moment.
    """
    return build_parser()


def _config_from_args(args) -> argparse.Namespace:
    """Check the flags, then fill in the defaults that would hide whether a flag
    was given; the namespace is then the run configuration, one field per dest."""
    if args.suite:
        blocked = [
            ("--method", args.method),
            ("--form", args.form),
            ("--seats", args.seats),
            ("--seed", args.tie_seed),
            ("--districts-col", args.districts_col),
            ("--cap", args.cap),
            ("--fixed-extra", args.fixed_extra),
            ("--stop", args.stop),
        ]
        for flag, value in blocked:
            if value is not None:
                raise InputError(f"{flag} does not apply to --suite runs")
        if args.compare or args.trace:
            raise InputError("--compare and --trace do not apply to --suite runs")
        if args.tie_mode != "deterministic":
            raise InputError(
                "--tie does not apply to --suite runs (each trial draws its own)"
            )
        if args.input_path is not None:
            raise InputError("--suite runs take no input file")
    else:
        if args.input_path is None:
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
    if args.tie_mode == "random":
        if args.tie_seed is None:
            raise InputError("--tie random requires --seed")
        if not 0 <= args.tie_seed < 2**64:
            raise InputError("--seed must fit in 64 bits")
    elif args.tie_seed is not None:
        raise InputError("--seed applies to --tie random only")
    if args.stop == "fixed" and args.fixed_extra is None:
        raise InputError("--stop fixed requires --fixed-extra")
    if args.stop == "residual" and args.fixed_extra is not None:
        raise InputError("--fixed-extra implies --stop fixed")
    if args.jobs is not None and args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    defaults = {"method": HARE, "districts_col": "districts", "trials": 10_000,
                "master_seed": 0, "jobs": 1}
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    return args


def _read_input(path: str) -> str:
    try:
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):  # UTF-8 whatever the locale
                sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        source = "standard input" if path == "-" else path
        raise InputError(f"{source}, line {line}: not valid UTF-8 text") from None


def run(config: argparse.Namespace) -> str:
    """Execute one resolved invocation and return the rendered report."""
    if config.suite:
        return _run_suite(config)
    tally, seed = parse_votes(_read_input(config.input_path), config.districts_col)
    _check_run(config, seed is not None)
    tie = TiePolicy(config.tie_mode, config.tie_seed)
    if config.compare:  # each method's canonical form, untraced
        runs = [_fixed_run(config, tally, m, None, tie) for m in METHODS]
    elif seed is not None:
        runs = [_run_seeded(config, tally, seed, tie)]
    else:
        runs = [_fixed_run(config, tally, config.method, config.form, tie)]
    allocations = [allocation for allocation, _ in runs]
    detail = runs[0][1]  # the trace, the two-stage run, or None
    if seed is not None and config.format == "table":  # reads no quota report
        return _seeded_table(config, tally, allocations[0], detail)
    report = compute_quotas(tally, allocations[0].house_size)
    if config.format == "json":
        key = "trace" if seed is None else "seeded_run"
        return _json_report(config, tally, report, allocations, key, detail)
    return _fixed_house_table(config, tally, report, allocations, detail)


def _check_run(config, two_stage):
    """The flag rules that turn on whether the input has a districts column."""
    hare, sequential = config.method == HARE, config.form in (None, "sequential")
    if two_stage:
        if config.seats is not None:
            raise InputError(
                "--seats does not apply to two-stage runs (the house size is derived)"
            )
        if config.compare:
            raise InputError("--compare applies to fixed-house runs")
        if sequential and not hare:
            raise InputError(
                "sequential two-stage runs use hare deficits; "
                "pick --form divisor with --method dhondt or sainte-lague"
            )
        if hare and not sequential:
            raise InputError("two-stage divisor runs need --method dhondt or sainte-lague")
        return
    if config.cap is not None or config.fixed_extra is not None or config.stop:
        raise InputError("two-stage options require a districts column")
    if config.seats is None:
        raise InputError("--seats is required without a districts column")
    if hare and config.form is None and config.trace:
        raise InputError(
            "the largest-remainder form has no step trace; use --form sequential"
        )
    if hare and not sequential:
        raise InputError("hare supports --form sequential only")
    if config.form == "sequential" and not hare:
        raise InputError("--form sequential applies to hare only")


# ---------------------------------------------------------------- fixed house


def _fixed_run(config, tally, method, form, tie):
    """One fixed-house engine for ``method`` and ``form``; (allocation, trace-or-None).

    Untraced runs of the per-seat forms jump to their result, and the
    multiplicative form always uses the sweep, so their cost does not grow
    with the house size.  Traced runs of the per-seat forms build one row
    per seat.  Engines are called by their names here, which wrappers patch.
    """
    n = config.seats
    if method == HARE and form is None:
        return hare_niemeyer(tally, n, tie), None
    if form == "multiplicative":
        allocation, trace = multiplicative(
            tally, n, _ROUNDING[method], tie=tie, with_trace=config.trace
        )
        return allocation, trace if config.trace else None
    # per-seat forms: sequential hare, or the divisor methods' default table
    if not config.trace:
        return jump_allocation(tally, n, method, tie), None
    if method == HARE:
        allocation, awards = sequential_hare(tally, n, tie)
        return allocation, AwardLog("sequential", HARE, awards)
    return highest_averages(tally, n, method, tie)


# ------------------------------------------------------------------ two-stage


def _run_seeded(config, tally, seed, tie):
    """The two-stage engine for ``config``; returns (allocation, SeededRun)."""
    seed = dataclasses.replace(seed, cap=config.cap, fixed_extra=config.fixed_extra)
    if config.form in (None, "sequential"):
        run_result = seeded_sequential_hare(tally, seed, tie)
        form = "seeded-sequential"
    else:
        stop = "residual" if config.fixed_extra is None else "fixed"
        run_result = seeded_divisor(
            tally, seed, _ROUNDING[config.method], stop, tie=tie, with_trace=config.trace
        )
        form = "seeded-divisor"
    allocation = Allocation(
        party_ids=tally.party_ids,
        seats=run_result.totals,
        house_size=run_result.house_size,
        method=config.method,
        form=form,
        tie_events=run_result.tie_events,
    )
    return allocation, run_result


# --------------------------------------------------------------------- suites


def _run_suite(config):
    space = InstanceSpace.default(trials=config.trials, master_seed=config.master_seed)
    if config.suite in ("equivalence", "bias"):
        suite, table = (
            (equivalence_suite, _suite_counts_table)
            if config.suite == "equivalence"
            else (bias_montecarlo, _bias_table)
        )
        report = suite(space, jobs=config.jobs)
        if config.format == "json":
            return serialize.dumps(
                {"config": _config_payload(config), "suite_report": report}
            )
        return table(report)
    searches = []
    for method in METHODS:
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
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows])


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


def _cells(values, above, row):
    """``row`` (a label, then the text of each value in ``above``) remade for
    ``values``: only a value that is not the very object above it is
    formatted, so ``_fmt`` runs only where a table row changed."""
    row = row.copy()
    for i in itertools.compress(range(len(values)), map(operator.is_not, values, above)):
        row[i + 1] = _fmt(values[i])
    return row


def _trace_text(trace) -> str:
    if isinstance(trace, AwardLog):
        lines = ["award log (largest deficit first):"]
        for award in trace.awards:
            lines.append(
                f"  seat {award.iteration}: -> {award.party} "
                f"(deficit {_fmt(award.deficit)})"
            )
        return "\n".join(lines)
    if trace.form == "divisor":
        blocks = [f"divisor table ({trace.method}):"]
        header = ["", *trace.party_ids]
        blank = (None,) * len(trace.party_ids)  # _fmt(None) is "-"
        above = (blank,) * 3
        rows = [[label, *["-"] * len(blank)] for label in ("seats", "present", "next")]
        for step in trace.steps:
            values = (step.seats_before, step.present_quota, step.next_quota)
            rows = [_cells(*cells) for cells in zip(values, above, rows)]
            above = values
            blocks.append(f"seat {step.step} -> {step.winner}")
            blocks.append(_layout([header, *rows]))
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


def _seeded_table(config, tally, allocation, run_result):
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
    return {name: value for name, value in vars(config).items() if name != "jobs"}


def _json_report(config, tally, report, allocations, detail_key, detail) -> str:
    """The canonical JSON report, with ``detail`` under ``detail_key`` if any."""
    tie_events = [
        {"source": f"{allocation.method}/{allocation.form}", "context": event.context,
         "tied": event.tied, "winners": event.winners}
        for allocation in allocations
        for event in allocation.tie_events
    ]
    payload = {
        "config": _config_payload(config),
        "tally": {"party_ids": tally.party_ids, "votes": tally.votes,
                  "total_votes": tally.total_votes},
        "allocations": allocations,
        "quota_report": report,
        "tie_events": tie_events,
    }
    if detail is not None:
        payload[detail_key] = detail
    return serialize.dumps(payload)


def main(argv=None) -> int:
    """Run one CLI call and return its exit code: 0 success, 1 input error,
    2 execution failure.

    Calls in one process share one parser, built on the first call, so
    each later call pays only for its own run: a small fixed-house run
    takes about 0.55 ms in process.
    """
    try:
        args = _parser().parse_args(argv)
        config = _config_from_args(args)
        sys.stdout.write(run(config))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IterationGuardError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # not the digit limit
            import traceback  # loaded only on a crash
            traceback.print_exc()
            return 2
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has a number over the {limit}-digit limit",
              file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - unexpected execution errors
        import traceback
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
