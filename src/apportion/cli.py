"""Command-line front end: CSV votes in, allocations and reports out.

Fixed-house runs need ``--seats``; a districts column in the input
switches to the two-stage (seeded) engines; ``--suite`` runs the oracle
suites instead of allocating.  ``--format json`` emits the canonical
report (exact rationals as num/den pairs); the default table output may
append decimal approximations, always marked with ``~``, and the step
traces that :mod:`tracetext` writes.  No module imports this one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import sys

from .methods import (
    HARE,
    METHODS,
    _ROUNDING,
    _STOP_RULES,
    compute_quotas,
    hare_niemeyer,
    highest_averages,
    jump_allocation,
    multiplicative,
    seeded_divisor,
    seeded_sequential_hare,
    sequential_hare,
)
from .types import (
    _TIE_MODES,
    Allocation,
    AwardLog,
    InputError,
    IterationGuardError,
    SeedDistribution,
    TiePolicy,
    VoteTally,
    _fmt,
    _layout,
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
    rows, has_districts = _header(source, districts_col)
    width = 2 + has_districts
    parties, votes, districts = [], [], []
    seen = set()
    for lineno, row in rows:
        if len(row) != width:
            raise InputError(f"line {lineno}: expected {width} fields, got {len(row)}")
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


def _header(source, districts_col):
    """Check the header of ``source``; returns its non-blank data rows as a lazy
    iterator of ``(line number, row)`` pairs, and whether it has the districts
    column."""
    if not isinstance(source, str):
        source = source.read()
    rows = _rows(csv.reader(io.StringIO(source.removeprefix("\ufeff"))))
    header_line, header = next(rows, (None, None))
    if header is None:
        raise InputError("empty input")
    names = [cell.strip().lower() for cell in header]
    if len(names) < 2 or names[0] != "party" or names[1] != "votes":
        raise InputError(
            f"line {header_line}: header must be party,votes[,{districts_col}]"
        )
    if names[2:] not in ([], [districts_col.strip().lower()]):
        raise InputError(f"line {header_line}: unexpected columns {names[2:]}")
    return rows, len(names) == 3


def _rows(reader):
    """The non-blank rows of ``reader`` with their line numbers; a line the csv
    module refuses (a field over its size limit, say) is an input error."""
    try:
        for lineno, row in enumerate(reader, start=1):
            if any(cell.strip() for cell in row):
                yield lineno, row
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from None


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
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument(
        "--form", choices=["divisor", "multiplicative", "sequential"],
        help="sequential applies to hare; divisor/multiplicative to the others",
    )
    parser.add_argument("--seats", type=int, help="house size for fixed-house runs")
    parser.add_argument("--tie", choices=_TIE_MODES, default="deterministic", dest="tie_mode")
    parser.add_argument("--seed", type=int, dest="tie_seed", metavar="SEED",
                        help="rng seed for --tie random")
    parser.add_argument("--districts-col", help="name of the district-seats column")
    parser.add_argument("--cap", type=int, help="cap on two-stage top-up seats")
    parser.add_argument("--fixed-extra", type=int,
                        help="exact number of two-stage top-up seats")
    parser.add_argument("--stop", choices=_STOP_RULES,
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


#: The rules on the flags alone, checked before the input is read: an
#: ``(applies, message)`` pair each, and the first rule that applies is the error.
#: (``dest=dest`` binds each generated rule to its own flag.)
_FLAG_RULES = (
    *((lambda a, dest=dest: a.suite and getattr(a, dest) is not None,
       f"{flag} does not apply to --suite runs") for flag, dest in (
        ("--method", "method"), ("--form", "form"), ("--seats", "seats"),
        ("--seed", "tie_seed"), ("--districts-col", "districts_col"), ("--cap", "cap"),
        ("--fixed-extra", "fixed_extra"), ("--stop", "stop"))),
    (lambda a: a.suite and (a.compare or a.trace),
     "--compare and --trace do not apply to --suite runs"),
    (lambda a: a.suite and a.tie_mode != "deterministic",
     "--tie does not apply to --suite runs (each trial draws its own)"),
    (lambda a: a.suite and a.input_path is not None, "--suite runs take no input file"),
    (lambda a: not a.suite and a.input_path is None,
     "an input file (or '-') is required unless --suite is given"),
    *((lambda a, dest=dest: not a.suite and getattr(a, dest) is not None,
       f"{flag} applies to --suite runs only") for flag, dest in (
        ("--trials", "trials"), ("--master-seed", "master_seed"), ("--jobs", "jobs"))),
    (lambda a: a.compare and a.method is not None, "--compare runs all methods; drop --method"),
    (lambda a: a.compare and a.form is not None,
     "--compare uses each method's canonical form; drop --form"),
    (lambda a: a.compare and a.trace, "--trace applies to single-method runs"),
    (lambda a: a.tie_mode == "random" and a.tie_seed is None, "--tie random requires --seed"),
    (lambda a: a.tie_mode == "random" and not 0 <= a.tie_seed < 2**64,
     "--seed must fit in 64 bits"),
    (lambda a: a.tie_mode != "random" and a.tie_seed is not None,
     "--seed applies to --tie random only"),
    (lambda a: a.stop == "fixed" and a.fixed_extra is None,
     "--stop fixed requires --fixed-extra"),
    (lambda a: a.stop == "residual" and a.fixed_extra is not None,
     "--fixed-extra implies --stop fixed"),
    (lambda a: a.jobs is not None and a.jobs < 1, "--jobs must be at least 1"),
)

#: The rules that turn on whether the input has a districts column, checked
#: once it is read (``two`` is True for a two-stage run), in the same way.
_RUN_RULES = (
    (lambda c, two: two and c.seats is not None,
     "--seats does not apply to two-stage runs (the house size is derived)"),
    (lambda c, two: two and c.compare, "--compare applies to fixed-house runs"),
    (lambda c, two: two and c.form in (None, "sequential") and c.method != HARE,
     "sequential two-stage runs use hare deficits; "
     "pick --form divisor with --method dhondt or sainte-lague"),
    (lambda c, two: two and c.form not in (None, "sequential") and c.method == HARE,
     "two-stage divisor runs need --method dhondt or sainte-lague"),
    (lambda c, two: not two and (c.cap is not None or c.fixed_extra is not None or c.stop),
     "two-stage options require a districts column"),
    (lambda c, two: not two and c.seats is None,
     "--seats is required without a districts column"),
    (lambda c, two: not two and c.method == HARE and c.form is None and c.trace,
     "the largest-remainder form has no step trace; use --form sequential"),
    (lambda c, two: not two and c.method == HARE and c.form not in (None, "sequential"),
     "hare supports --form sequential only"),
    (lambda c, two: not two and c.form == "sequential" and c.method != HARE,
     "--form sequential applies to hare only"),
)


def _refuse(rules, *args):
    """Raise the message of the first of ``rules`` that applies to ``args``."""
    for applies, message in rules:
        if applies(*args):
            raise InputError(message)


def _config_from_args(args) -> argparse.Namespace:
    """Check the flags, then fill in the defaults that would hide whether a flag
    was given; the namespace is then the run configuration, one field per dest."""
    _refuse(_FLAG_RULES, args)
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
    text = _read_input(config.input_path)
    _refuse(_RUN_RULES, config, _header(text, config.districts_col)[1])
    tally, seed = parse_votes(text, config.districts_col)
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
        return _seeded_table(tally, allocations[0], detail)
    report = compute_quotas(tally, allocations[0].house_size)
    if config.format == "json":
        key = "trace" if seed is None else "seeded_run"
        return _json_report(config, tally, report, allocations, key, detail)
    return _fixed_house_table(config, tally, report, allocations, detail)


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
        run_result = seeded_sequential_hare(tally, seed, tie,
                                            with_trace=config.trace or config.format == "json")
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


def equivalence_suite(space, jobs):
    """The oracle's equivalence suite, with the oracle loaded on the first call.

    A name of this module, as the engines are, so that a wrapper set here
    (the benchmark's tracer) sees each suite the CLI runs.
    """
    from .oracle import equivalence_suite
    return equivalence_suite(space, jobs=jobs)


def _run_suite(config):
    from .oracle import InstanceSpace, bias_montecarlo, find_house_monotonicity_violation
    space = InstanceSpace.default(trials=config.trials, master_seed=config.master_seed)
    if config.suite == "paradox":
        searches = [{"method": method, "witness": find_house_monotonicity_violation(space, method)}
                    for method in METHODS]
        payload = {"suite": "paradox", "space": space, "searches": searches}
        table = functools.partial(_paradox_table, space, searches)
    else:
        equivalence = config.suite == "equivalence"
        report = (equivalence_suite if equivalence else bias_montecarlo)(space, jobs=config.jobs)
        payload = {"suite_report": report}
        table = functools.partial(_suite_counts_table if equivalence else _bias_table, report)
    if config.format == "json":
        from .serialize import dumps
        return dumps({"config": _config_payload(config), **payload})
    return table()


# ------------------------------------------------------------------ rendering


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
    head = ["party", "votes", "ideal", "lower", "upper"]
    columns = [tally.party_ids, map(str, tally.votes), map(_fmt, report.ideals),
               map(str, report.lowers), map(str, report.uppers)]
    if config.compare:
        seats = [a.seats for a in allocations]
        head += [a.method for a in allocations] + ["differs"]
        columns += [*(map(str, s) for s in seats),
                    ["*" if len(set(row)) > 1 else "" for row in zip(*seats)]]
        footer = []
    else:
        a = allocations[0]
        head += ["seats", "residual"]
        columns += [map(str, a.seats), map(_fmt, report.residuals_for(a))]
        footer = [f"method {a.method} ({a.form})"]
    lines = [
        f"house size {report.house_size}, total votes {tally.total_votes}, "
        f"ideal quota {_fmt(report.ideal_quota)}",
        _layout([head, *zip(*columns)]),
        *footer,
        *_tie_lines(allocations),
    ]
    if trace is not None:
        lines += ["", _trace_text(trace)]
    return "\n".join(lines) + "\n"


def _trace_text(trace) -> str:
    """The text of a run's trace; the module that writes it loads on the first
    call, so that runs that print no trace do not compile it."""
    from .tracetext import trace_text
    return trace_text(trace)


def _seeded_table(tally, allocation, result):
    head = ["party", "votes", "districts", "top-up", "total", "residual"]
    counts = (tally.votes, result.district_seats, result.extra_seats, result.totals)
    columns = [tally.party_ids, *(map(str, c) for c in counts), map(_fmt, result.residuals)]
    lines = [
        f"two-stage run: {sum(result.district_seats)} district + "
        f"{sum(result.extra_seats)} top-up = house {result.house_size}",
        _layout([head, *zip(*columns)]),
        f"stopped after {result.stop_iteration} top-up seat(s): {result.stop_reason}",
    ]
    if result.multiplier is not None:
        lines.append(f"multiplier {_fmt(result.multiplier)}")
    if result.multiplier_interval is not None:
        lo, hi = result.multiplier_interval
        lines.append(f"multiplier bracket ({_fmt(lo)}, {_fmt(hi)})")
    lines.extend(_tie_lines([allocation]))
    if result.awards or result.sweep:
        lines.append(_trace_text(result))
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
    from .serialize import dumps
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
    return dumps(payload)


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
    except Exception as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            limit = sys.get_int_max_str_digits()
            print(f"error: a result has a number over the {limit}-digit limit",
                  file=sys.stderr)
            return 1
        import traceback  # loaded only on a crash
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
