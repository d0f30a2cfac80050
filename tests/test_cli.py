"""End-to-end command-line behaviour: parsing, rendering, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apportion
from apportion import (
    AwardLog,
    SeedDistribution,
    VoteTally,
    allocation_from_json,
    compute_quotas,
    hare_niemeyer,
    highest_averages,
    multiplicative,
    quota_report_from_json,
    seeded_run_from_json,
    seeded_sequential_hare,
    sequential_hare,
    trace_from_json,
)
from apportion import cli as cli_module
from apportion import methods, oracle, serialize
from apportion.cli import main, parse_votes
from apportion.types import DivisorStep, InputError, TieEvent, TraceTable

WORKED = "party,votes\nA,600\nB,300\nC,100\n"
THREE_WAY = "party,votes\nA,53\nB,24\nC,23\n"
CLOSE = "party,votes\nA,78\nB,78\nC,422\nD,422\n"
SEEDED = "party,votes,districts\nA,20,3\nB,80,1\n"
GUARDED = "party,votes,districts\nA,1,3\nB,1000000,0\n"
# Votes near 10**15: a pairwise gcd divides a difference of at most 12, so
# no two seat thresholds coincide within the first 10**12 seats.
HUGE = "party,votes\n" + "".join(
    f"P{i},{10**15 + d}\n" for i, d in enumerate((1, 2, 3, 5, 7, 11, 13))
)
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cli(capsys, monkeypatch):
    def invoke(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def csv_file(tmp_path):
    def write(content, name="votes.csv"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


class TestParseVotes:
    def test_two_columns(self):
        tally, seed = parse_votes(WORKED)
        assert tally == VoteTally(("A", "B", "C"), (600, 300, 100))
        assert seed is None

    def test_districts_column(self):
        tally, seed = parse_votes(SEEDED)
        assert tally.votes == (20, 80)
        assert seed == SeedDistribution(("A", "B"), (3, 1))

    def test_custom_districts_column_name(self):
        _, seed = parse_votes("party,votes,won\nA,10,2\n", districts_col="won")
        assert seed.district_seats == (2,)

    def test_header_is_case_insensitive_and_trimmed(self):
        tally, _ = parse_votes(" Party , VOTES \nA,5\n")
        assert tally.votes == (5,)

    def test_blank_lines_are_skipped(self):
        tally, _ = parse_votes("party,votes\n\nA,5\n   \nB,7\n")
        assert tally.votes == (5, 7)

    def test_party_ids_are_verbatim(self):
        tally, _ = parse_votes('party,votes\n" A (left) ",5\nB,7\n')
        assert tally.party_ids == (" A (left) ", "B")

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("", "empty input"),
            ("party,votes\n", "no data rows"),
            ("name,votes\nA,5\n", "line 1"),
            ("party,votes,share\nA,5,1\n", "unexpected columns"),
            ("party,votes\nA,5,9\n", "line 2: expected 2 fields"),
            ("party,votes\nA,5\nA,7\n", "duplicate party 'A'"),
            ("party,votes\nA,5\nB,-3\n", "line 3"),
            ("party,votes\nA,1.5\n", "non-negative integer"),
            ("party,votes\nA,1e3\n", "non-negative integer"),
        ],
    )
    def test_malformed_input(self, content, fragment):
        with pytest.raises(InputError) as excinfo:
            parse_votes(content)
        assert fragment in str(excinfo.value)

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(InputError):
            parse_votes("party,votes\nA,١٢\n")  # arabic-indic digits


class TestFixedHouseRuns:
    def test_basic_table(self, cli, csv_file):
        code, out, err = cli(csv_file(WORKED), "--seats", "10")
        assert (code, err) == (0, "")
        assert "house size 10, total votes 1000, ideal quota 100" in out
        assert "method hare (largest-remainder)" in out

    def test_fractions_get_marked_approximations(self, cli, csv_file):
        code, out, _ = cli(csv_file(THREE_WAY), "--seats", "10")
        assert code == 0
        assert "53/10 (~5.3000)" in out

    def test_compare_marks_differing_rows(self, cli, csv_file):
        code, out, _ = cli(csv_file(CLOSE), "--seats", "10", "--compare")
        assert code == 0
        assert "differs" in out
        assert "*" in out
        assert "tie (" in out  # C and D bid identical values

    def test_divisor_trace(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(THREE_WAY), "--seats", "3", "--method", "dhondt", "--trace"
        )
        assert code == 0
        assert "divisor table (dhondt):" in out
        assert "seat 1 -> A" in out

    def test_multiplier_trace(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(THREE_WAY),
            "--seats", "3",
            "--method", "sainte-lague",
            "--form", "multiplicative",
            "--trace",
        )
        assert code == 0
        assert "multiplier search (sainte-lague):" in out
        assert "witness M=50/23" in out
        assert "implied quota 23" in out

    def test_sequential_trace(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(THREE_WAY),
            "--seats", "10",
            "--form", "sequential",
            "--trace",
        )
        assert code == 0
        assert "award log" in out
        assert "seat 1: -> A" in out

    def test_zero_seats(self, cli, csv_file):
        code, out, _ = cli(csv_file(WORKED), "--seats", "0")
        assert code == 0
        assert "house size 0" in out
        assert "ideal quota -" in out

    def test_random_tie_run_is_replayable(self, cli, csv_file):
        path = csv_file(CLOSE)
        argv = (path, "--seats", "11", "--tie", "random", "--seed", "9")
        first = cli(*argv)
        second = cli(*argv)
        assert first == second and first[0] == 0

    def test_stdin_input(self, cli):
        code, out, _ = cli("-", "--seats", "10", stdin=WORKED)
        assert code == 0
        assert "house size 10" in out

    def test_byte_order_mark_is_skipped(self, cli, csv_file, tmp_path):
        plain = cli(csv_file(WORKED), "--seats", "10")
        path = tmp_path / "exported.csv"
        path.write_text(WORKED, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert cli(str(path), "--seats", "10") == plain
        assert cli("-", "--seats", "10", stdin="\ufeff" + WORKED) == plain
        assert plain[0] == 0

    def test_undecodable_input_is_an_input_error(self, cli, tmp_path, monkeypatch):
        latin1 = "party,votes\nCaf\xe9,10\nB,5\n".encode("latin-1")
        path = tmp_path / "latin1.csv"
        path.write_bytes(latin1)
        code, out, err = cli(str(path), "--seats", "3")
        assert (code, out) == (1, "")
        assert err == f"error: {path}, line 2: not valid UTF-8 text\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(latin1)))
        code, out, err = cli("-", "--seats", "3")
        assert (code, out) == (1, "")
        assert err == "error: standard input, line 2: not valid UTF-8 text\n"

    def test_undecodable_stdin_in_a_fresh_interpreter(self):
        # the real stdin: under the C locale it would smuggle the byte through
        # as a surrogate escape
        env = {**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C"}
        proc = subprocess.run(
            [sys.executable, "-m", "apportion.cli", "-", "--seats", "3"],
            input=b"party,votes\nCaf\xe9,10\n", capture_output=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"error: standard input, line 2: not valid UTF-8 text\n"

    def test_approximation_beyond_the_float_range(self, cli, csv_file):
        big = 10**311
        path = csv_file(f"party,votes\nA,{big + 1}\nB,{3 * big + 2}\n")
        code, out, err = cli(path, "--seats", "7")
        assert (code, err) == (0, "")
        exact, approx = re.search(r"ideal quota (\S+) \(~(\S+)\)", out).groups()
        assert Fraction(exact) == Fraction(4 * big + 3, 7)
        assert re.fullmatch(r"\d{311}\.\d{4}", approx)
        assert abs(Fraction(approx) - Fraction(exact)) <= Fraction(1, 20_000)


class TestDivisorTraceText:
    """The table text depends on the quotas' values, not on which rows
    share a quota object (the engine's rows do, decoded rows do not)."""

    @pytest.mark.parametrize(
        "votes, house_size, method",
        [
            ((53, 24, 23), 10, "dhondt"),
            ((53, 24, 23), 10, "sainte-lague"),
            ((78, 78, 422, 422), 11, "dhondt"),  # C and D tie, then A and B
        ],
    )
    def test_decoded_trace_renders_the_same(self, votes, house_size, method):
        tally = VoteTally(tuple("ABCD"[: len(votes)]), votes)
        _, trace = highest_averages(tally, house_size, method)
        decoded = trace_from_json(serialize.jsonify(trace))
        assert decoded == trace
        cells = [
            value
            for step in decoded.steps
            for value in step.present_quota + step.next_quota
            if value is not None
        ]
        assert len({id(value) for value in cells}) == len(cells)  # nothing shared
        text = cli_module._trace_text(trace)
        assert cli_module._trace_text(decoded) == text
        assert text.count("\nseat ") == house_size

    def test_equal_but_distinct_quotas(self):
        seat_one = DivisorStep(
            1, (0, 0), (None, None), (Fraction(7, 2), Fraction(3)), "A"
        )
        seat_two = DivisorStep(
            2, (1, 0), (Fraction(7, 2), None), (Fraction(7, 4), Fraction(3)), "Bee"
        )
        assert seat_two.present_quota[0] is not seat_one.next_quota[0]
        assert seat_two.next_quota[1] is not seat_one.next_quota[1]
        trace = TraceTable("divisor", "dhondt", ("A", "Bee"), (seat_one, seat_two), (1, 1))
        assert cli_module._trace_text(trace) == (
            "divisor table (dhondt):\n"
            "seat 1 -> A\n"
            "         A              Bee\n"
            "seats    0              0\n"
            "present  -              -\n"
            "next     7/2 (~3.5000)  3\n"
            "seat 2 -> Bee\n"
            "         A              Bee\n"
            "seats    1              0\n"
            "present  7/2 (~3.5000)  -\n"
            "next     7/4 (~1.7500)  3"
        )


def _layout_before(rows):
    """The table layout as it was written with per-cell generators."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


_CELLS = st.text(max_size=6) | st.sampled_from(["", " ", "Café", "☃☃", "\U0001f600", "a "])


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 5),
    rows=st.lists(st.lists(_CELLS, min_size=5, max_size=7), min_size=0, max_size=5),
)
def test_layout_matches_the_per_cell_layout(width, rows):
    # ragged widths, unicode and blank cells; rows no shorter than the first
    rows = [rows[0][:width] if rows else ["x"] * width, *rows]
    assert cli_module._layout(rows) == _layout_before(rows)


class TestAwardLogText:
    def test_decoded_award_log_renders_the_same(self, cli, csv_file):
        path = csv_file(THREE_WAY)
        argv = (path, "--seats", "7", "--method", "hare", "--form", "sequential",
                "--trace")
        code, out, _ = cli(*argv, "--format", "json")
        assert code == 0
        decoded = trace_from_json(json.loads(out)["trace"])
        _, awards = sequential_hare(VoteTally(("A", "B", "C"), (53, 24, 23)), 7)
        assert decoded == AwardLog("sequential", "hare", awards)
        code, table, _ = cli(*argv)
        assert code == 0
        assert table.endswith("\n" + cli_module._trace_text(decoded) + "\n")
        assert table.count("\n  seat ") == 7


class TestUntracedCostDoesNotGrowWithSeats:
    SEATS = 10**12
    # each untraced method/form, and --compare: (flags, methods reported)
    RUNS = [
        (("--method", "hare"), ("hare",)),
        (("--method", "hare", "--form", "sequential"), ("hare",)),
        (("--method", "dhondt"), ("dhondt",)),
        (("--method", "dhondt", "--form", "multiplicative"), ("dhondt",)),
        (("--method", "sainte-lague"), ("sainte-lague",)),
        (("--method", "sainte-lague", "--form", "multiplicative"), ("sainte-lague",)),
        (("--compare",), ("hare", "dhondt", "sainte-lague")),
    ]

    @staticmethod
    def expected(method):
        tally, _ = parse_votes(HUGE)
        n = TestUntracedCostDoesNotGrowWithSeats.SEATS
        if method == "hare":
            return list(hare_niemeyer(tally, n).seats)
        rounding = "floor" if method == "dhondt" else "nearest"
        allocation, _ = multiplicative(tally, n, rounding, with_trace=False)
        return list(allocation.seats)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("flags,methods", RUNS)
    def test_a_trillion_seats(self, cli, csv_file, flags, methods, fmt):
        code, out, err = cli(
            csv_file(HUGE), "--seats", str(self.SEATS), "--format", fmt, *flags
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            allocations = json.loads(out)["allocations"]
            reported = [(a["method"], a["seats"]) for a in allocations]
        else:
            rows = [re.split(r" {2,}", line) for line in out.splitlines()[2:9]]
            reported = [
                (m, [int(row[5 + j]) for row in rows]) for j, m in enumerate(methods)
            ]
        assert reported == [(m, self.expected(m)) for m in methods]


def _divisor_runs(method, rounding):
    """The accepted fixed-house runs of a divisor method, as in TestEngineChoice."""
    divisor = [("jump_allocation", (method,))], ["divisor"]
    traced = [("highest_averages", (method,))], ["divisor"]
    sweep = [("multiplicative", (rounding,))], ["multiplicative"]
    m = ("--method", method)
    return [
        (m, *divisor),
        ((*m, "--form", "divisor"), *divisor),
        ((*m, "--trace"), *traced),
        ((*m, "--form", "divisor", "--trace"), *traced),
        ((*m, "--form", "multiplicative"), *sweep),
        ((*m, "--form", "multiplicative", "--trace"), *sweep),
    ]


class TestEngineChoice:
    """The CLI calls each engine through its own module-level name.

    A wrapper patched over one of those names (as the benchmark's tracer
    patches them) must see every call of that engine, so each run below
    records exactly which names it called, with their string arguments.
    """

    ENGINES = [
        "hare_niemeyer", "jump_allocation", "sequential_hare", "highest_averages",
        "multiplicative", "seeded_sequential_hare", "seeded_divisor",
    ]
    # (flags, engine calls, result form labels); WORKED has no districts column
    FIXED = [
        ((), [("hare_niemeyer", ())], ["largest-remainder"]),
        (("--form", "sequential"), [("jump_allocation", ("hare",))], ["sequential"]),
        (("--form", "sequential", "--trace"), [("sequential_hare", ())],
         ["sequential"]),
        *_divisor_runs("dhondt", "floor"),
        *_divisor_runs("sainte-lague", "nearest"),
        (("--compare",),
         [("hare_niemeyer", ()), ("jump_allocation", ("dhondt",)),
          ("jump_allocation", ("sainte-lague",))],
         ["largest-remainder", "divisor", "divisor"]),
    ]
    # SEEDED has a districts column
    TWO_STAGE = [
        ((), [("seeded_sequential_hare", ())], ["seeded-sequential"]),
        (("--form", "sequential", "--trace"), [("seeded_sequential_hare", ())],
         ["seeded-sequential"]),
        (("--method", "dhondt", "--form", "divisor"),
         [("seeded_divisor", ("floor", "residual"))], ["seeded-divisor"]),
        (("--method", "sainte-lague", "--form", "multiplicative", "--trace"),
         [("seeded_divisor", ("nearest", "residual"))], ["seeded-divisor"]),
        (("--method", "dhondt", "--form", "divisor", "--fixed-extra", "3"),
         [("seeded_divisor", ("floor", "fixed"))], ["seeded-divisor"]),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        recorded = []
        for name in self.ENGINES:
            engine = getattr(cli_module, name)

            def recorder(*args, _name=name, _engine=engine, **kwargs):
                recorded.append((_name, tuple(a for a in args if isinstance(a, str))))
                return _engine(*args, **kwargs)

            monkeypatch.setattr(cli_module, name, recorder)
        return recorded

    @pytest.mark.parametrize(
        "text,flags,engines,forms",
        [
            pytest.param(text, flags, engines, forms, id=f"{kind}:{' '.join(flags)}")
            for kind, text, runs in (("fixed", WORKED, FIXED),
                                     ("two-stage", SEEDED, TWO_STAGE))
            for flags, engines, forms in runs
        ],
    )
    def test_each_run_calls_one_named_engine(self, cli, csv_file, calls, text, flags,
                                              engines, forms):
        seats = ("--seats", "5") if text == WORKED else ()
        code, out, err = cli(csv_file(text), "--format", "json", *seats, *flags)
        assert (code, err) == (0, "")
        assert calls == engines
        assert [a["form"] for a in json.loads(out)["allocations"]] == forms


class TestTraceRowGuard:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--method", "dhondt"),
            ("--method", "sainte-lague"),
            ("--method", "hare", "--form", "sequential"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_per_seat_traces_are_capped(self, cli, csv_file, monkeypatch, flags, fmt):
        monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
        path = csv_file(WORKED)
        argv = (path, "--trace", "--format", fmt) + flags
        code, out, err = cli(*argv, "--seats", "6")
        assert (code, out) == (2, "")
        assert err.startswith("execution error: the run would build at least 6 ")
        assert err.endswith(" rows (limit 5)\n")
        code, _, err = cli(*argv, "--seats", "5")
        assert (code, err) == (0, "")
        code, _, err = cli(*flags, path, "--seats", "6", "--format", fmt)
        assert (code, err) == (0, "")

    def test_the_multiplier_trace_is_not_capped(self, cli, csv_file, monkeypatch):
        monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
        code, _, err = cli(
            csv_file(WORKED), "--seats", "6", "--method", "dhondt",
            "--form", "multiplicative", "--trace",
        )
        assert (code, err) == (0, "")

    def test_a_huge_traced_house_fails_fast(self, cli, csv_file):
        code, out, err = cli(
            csv_file(WORKED), "--seats", str(10**8), "--method", "dhondt", "--trace"
        )
        assert (code, out) == (2, "")
        assert err == (
            "execution error: the run would build at least 100000000 "
            "divisor table rows (limit 50000)\n"
        )


class TestOneRowLimit:
    """``methods.MAX_TRACE_ROWS`` alone bounds every row the CLI can ask for."""

    @pytest.mark.parametrize(
        "text,flags,at_limit,over",
        [
            (WORKED, ("--method", "dhondt", "--trace"), "--seats=5", "--seats=6"),
            (WORKED, ("--method", "hare", "--form", "sequential", "--trace"),
             "--seats=5", "--seats=6"),
            (SEEDED, ("--form", "divisor", "--method", "dhondt", "--trace"),
             "--fixed-extra=5", "--fixed-extra=6"),
            # equal votes tie at 6 of the first 8 seats, 5 of the first 7
            ("party,votes\nA,10\nB,10\nC,10\n", ("--method", "dhondt"),
             "--seats=7", "--seats=8"),
        ],
        ids=["divisor-table", "award-log", "sweep", "jump-ties"],
    )
    def test_each_guarded_path(self, cli, csv_file, monkeypatch, text, flags,
                               at_limit, over):
        monkeypatch.setattr(methods, "MAX_TRACE_ROWS", 5)
        path = csv_file(text)
        assert cli(path, *flags, at_limit)[0] == 0
        code, out, err = cli(path, *flags, over)
        assert (code, out) == (2, "")
        assert err.startswith("execution error: the run would build at least 6 ")
        assert err.endswith(" (limit 5)\n") and err.count("\n") == 1
        assert "--trace" not in err and "with_trace" not in err


class TestTraceCellLimit:
    """``methods.MAX_TRACE_CELLS`` bounds the cells of the rows a trace builds:
    3·k per divisor-table row, k per two-stage sweep row, one per award."""

    @pytest.mark.parametrize(
        "text,flags,limit,at_limit,over,cells",
        [
            (WORKED, ("--method", "dhondt", "--trace"), 45, "--seats=5", "--seats=6",
             "54 cells in 6 divisor table rows"),
            (WORKED, ("--method", "hare", "--form", "sequential", "--trace"), 5,
             "--seats=5", "--seats=6", "6 cells in 6 award log rows"),
            (SEEDED, ("--form", "divisor", "--method", "dhondt", "--trace"), 10,
             "--fixed-extra=5", "--fixed-extra=6", "12 cells in 6 sweep rows"),
        ],
        ids=["divisor-table", "award-log", "sweep"],
    )
    def test_each_traced_form(self, cli, csv_file, monkeypatch, text, flags, limit,
                              at_limit, over, cells):
        monkeypatch.setattr(methods, "MAX_TRACE_CELLS", limit)
        path = csv_file(text)
        assert cli(path, *flags, at_limit)[0] == 0
        code, out, err = cli(path, *flags, over)
        assert (code, out) == (2, "")
        assert err == (
            f"execution error: the run would build at least {cells} (limit {limit} cells)\n"
        )

    def test_a_wide_table_under_the_row_limit_exits_2(self, cli, csv_file):
        # 20 parties: 20,000 rows pass the 50,000-row limit, their 1.2 million
        # cells do not
        text = "party,votes\n" + "".join(f"P{i},{1000 + i}\n" for i in range(20))
        code, out, err = cli(csv_file(text), "--seats", "20000", "--method", "dhondt",
                             "--trace", "--format", "json")
        assert (code, out) == (2, "")
        assert err == (
            "execution error: the run would build at least 1200000 cells in 20000 "
            "divisor table rows (limit 1000000 cells)\n"
        )

    def test_a_wide_multiplier_search_exits_2(self, cli, csv_file):
        # 10,000 parties: floor rounding at the pilot M = N leaves 5,000 seats
        # to raise, so the search would log up to 5,001 rows of 10,000 cells
        text = "party,votes\n" + "".join(f"P{i},{1000 + i}\n" for i in range(10_000))
        code, out, err = cli(csv_file(text), "--seats", "1000000", "--method", "dhondt",
                             "--form", "multiplicative", "--trace", "--format", "json")
        assert (code, out) == (2, "")
        assert err == (
            "execution error: the run would build at least 50010000 cells in 5001 "
            "multiplier search rows (limit 1000000 cells)\n"
        )


class TestQuotaReportOnlyWhereRead:
    def test_two_stage_tables_compute_no_quota_report(self, cli, csv_file, monkeypatch):
        calls = []

        def counted(tally, house_size):
            calls.append(house_size)
            return compute_quotas(tally, house_size)

        monkeypatch.setattr(cli_module, "compute_quotas", counted)
        two_stage, fixed = csv_file(SEEDED), csv_file(WORKED, name="fixed.csv")
        assert cli(two_stage, "--trace")[0] == 0
        assert cli(two_stage, "--form", "divisor", "--method", "dhondt")[0] == 0
        assert calls == []
        assert cli(two_stage, "--format", "json")[0] == 0
        assert cli(fixed, "--seats", "5")[0] == 0
        assert cli(fixed, "--seats", "6", "--format", "json")[0] == 0
        assert calls == [11, 5, 6]


class TestTieEventGuard:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--method", "dhondt"),
            ("--method", "sainte-lague"),
            ("--method", "hare", "--form", "sequential"),
            ("--compare",),
        ],
    )
    def test_a_tie_dense_trillion_seats_fails_fast(self, cli, csv_file, flags):
        code, out, err = cli(csv_file(WORKED), "--seats", str(10**12), *flags)
        assert (code, out) == (2, "")
        # the count is a lower bound, found from the first pair or level
        assert re.fullmatch(
            r"execution error: the run would build at least \d+ tie events "
            r"\(limit 50000\)\n",
            err,
        )


class TestJsonReports:
    def test_fixed_house_payload_round_trips(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(WORKED), "--seats", "10", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "allocations", "config", "quota_report", "tally", "tie_events",
        }
        tally = VoteTally(("A", "B", "C"), (600, 300, 100))
        assert allocation_from_json(payload["allocations"][0]) == hare_niemeyer(
            tally, 10
        )
        assert quota_report_from_json(payload["quota_report"]) == compute_quotas(
            tally, 10
        )
        assert payload["tally"]["total_votes"] == 1000

    def test_trace_payload_round_trips(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(THREE_WAY),
            "--seats", "3",
            "--method", "dhondt",
            "--trace",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        tally = VoteTally(("A", "B", "C"), (53, 24, 23))
        _, trace = highest_averages(tally, 3, "dhondt")
        assert trace_from_json(payload["trace"]) == trace

    @pytest.mark.parametrize(
        "text,flags",
        [
            (WORKED, ("--seats", "10")),
            (CLOSE, ("--seats", "10", "--compare")),
            (CLOSE, ("--seats", "10", "--method", "dhondt", "--trace")),
            (CLOSE, ("--seats", "10", "--method", "sainte-lague", "--form",
                     "multiplicative", "--trace")),
            (THREE_WAY, ("--seats", "7", "--method", "hare", "--form", "sequential",
                         "--trace")),
            (SEEDED, ("--trace",)),
            (SEEDED, ("--method", "dhondt", "--form", "divisor", "--trace")),
            (SEEDED, ("--method", "sainte-lague", "--form", "divisor",
                      "--fixed-extra", "3", "--trace")),
        ],
    )
    def test_every_domain_part_decodes(self, cli, csv_file, text, flags):
        code, out, _ = cli(csv_file(text), *flags, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        parts = [(allocation_from_json, a) for a in payload["allocations"]]
        parts += [
            (decode, payload[key])
            for key, decode in (("quota_report", quota_report_from_json),
                                ("trace", trace_from_json),
                                ("seeded_run", seeded_run_from_json))
            if key in payload
        ]
        for decode, part in parts:
            assert serialize.jsonify(decode(part)) == part

    def test_tie_events_carry_their_source(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(CLOSE),
            "--seats", "10",
            "--method", "dhondt",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tie_events"]
        assert all(e["source"] == "dhondt/divisor" for e in payload["tie_events"])

    def test_seeded_payload_round_trips(self, cli, csv_file):
        code, out, _ = cli(csv_file(SEEDED), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = seeded_sequential_hare(
            VoteTally(("A", "B"), (20, 80)), SeedDistribution(("A", "B"), (3, 1))
        )
        assert seeded_run_from_json(payload["seeded_run"]) == expected
        assert payload["allocations"][0]["form"] == "seeded-sequential"
        assert payload["allocations"][0]["house_size"] == 11

    def test_rerun_is_byte_identical(self, cli, csv_file):
        path = csv_file(THREE_WAY)
        argv = (path, "--seats", "7", "--method", "dhondt", "--format", "json")
        assert cli(*argv)[1] == cli(*argv)[1]

    def test_config_echo(self, cli, csv_file, inline_pool):
        # every flag under its destination name, defaults filled in, no jobs
        defaults = {
            "input_path": None, "method": "hare", "form": None, "seats": None,
            "tie_mode": "deterministic", "tie_seed": None, "districts_col": "districts",
            "cap": None, "fixed_extra": None, "stop": None, "compare": False,
            "trace": False, "format": "json", "suite": None, "trials": 10_000,
            "master_seed": 0,
        }
        fixed = csv_file(CLOSE)
        two_stage = csv_file(SEEDED.replace("districts", "won"), name="won.csv")
        runs = [
            ((fixed, "--seats", "10", "--method", "dhondt", "--form", "multiplicative",
              "--tie", "random", "--seed", "7", "--trace"),
             {"input_path": fixed, "method": "dhondt", "form": "multiplicative",
              "seats": 10, "tie_mode": "random", "tie_seed": 7, "trace": True}),
            ((two_stage, "--districts-col", "won", "--method", "sainte-lague",
              "--form", "divisor", "--fixed-extra", "2"),
             {"input_path": two_stage, "method": "sainte-lague", "form": "divisor",
              "districts_col": "won", "fixed_extra": 2}),
            (("--suite", "bias", "--trials", "6", "--master-seed", "3", "--jobs", "2"),
             {"suite": "bias", "trials": 6, "master_seed": 3}),
        ]
        for argv, changed in runs:
            code, out, _ = cli(*argv, "--format", "json")
            assert code == 0
            assert json.loads(out)["config"] == {**defaults, **changed}
        assert inline_pool == [2]


def _json_report_by_asdict(config, tally, report, allocations, detail_key, detail):
    """The JSON report as written with deep copies, the reference for the
    shallow dicts of ``cli._json_report``."""
    tie_events = [
        {"source": f"{allocation.method}/{allocation.form}", **dataclasses.asdict(event)}
        for allocation in allocations
        for event in allocation.tie_events
    ]
    payload = {
        "config": cli_module._config_payload(config),
        "tally": {**dataclasses.asdict(tally), "total_votes": tally.total_votes},
        "allocations": allocations,
        "quota_report": report,
        "tie_events": tie_events,
    }
    if detail is not None:
        payload[detail_key] = detail
    return serialize.dumps(payload)


_IDS = st.text(min_size=1, max_size=4) | st.sampled_from(
    ['"', '\\"q"', "Café", "☃", "\U0001f600"]
)


@st.composite
def _report_args(draw):
    """``_json_report`` arguments: a tally of up to 30 parties, one to three
    allocations with any tie events, and an award log or no detail."""
    ids = tuple(draw(st.lists(_IDS, min_size=1, max_size=30, unique=True)))
    votes = draw(st.lists(st.integers(0, 10**6), min_size=len(ids), max_size=len(ids)))
    votes[0] += 1  # some party has votes
    tally = VoteTally(ids, tuple(votes))
    n = draw(st.integers(0, 40))
    events = st.builds(
        TieEvent, st.text(max_size=8),
        st.lists(st.sampled_from(ids), max_size=4).map(tuple),
        st.lists(st.sampled_from(ids), max_size=2).map(tuple),
    )
    allocations = [
        dataclasses.replace(hare_niemeyer(tally, n), method=method,
                            tie_events=tuple(draw(st.lists(events, max_size=3))))
        for method in draw(st.lists(st.sampled_from(["hare", "dhondt", "sainte-lague"]),
                                    min_size=1, max_size=3))
    ]
    detail = (AwardLog("sequential", "hare", sequential_hare(tally, n)[1])
              if draw(st.booleans()) else None)
    return tally, compute_quotas(tally, n), allocations, detail


@settings(max_examples=200, deadline=None)
@given(args=_report_args())
def test_json_report_matches_the_deep_copy_report(args):
    tally, report, allocations, detail = args
    argv = ["votes.csv", "--seats", "1", "--format", "json"]
    config = cli_module._config_from_args(cli_module.build_parser().parse_args(argv))
    report_args = (config, tally, report, allocations, "trace", detail)
    assert cli_module._json_report(*report_args) == _json_report_by_asdict(*report_args)


class TestSeededRuns:
    def test_sequential_table(self, cli, csv_file):
        code, out, _ = cli(csv_file(SEEDED), "--trace")
        assert code == 0
        assert "two-stage run: 4 district + 7 top-up = house 11" in out
        assert "all-residuals-below-one" in out
        assert "award log:" in out

    def test_cap(self, cli, csv_file):
        code, out, _ = cli(csv_file(SEEDED), "--cap", "3")
        assert code == 0
        assert "stopped after 3 top-up seat(s): cap-reached" in out

    def test_divisor_form_table(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(SEEDED), "--form", "divisor", "--method", "dhondt"
        )
        assert code == 0
        assert "multiplier 85/8" in out
        assert "multiplier bracket (10, 45/4" in out

    def test_divisor_fixed_stop(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(SEEDED),
            "--form", "divisor",
            "--method", "dhondt",
            "--fixed-extra", "4",
        )
        assert code == 0
        assert "stopped after 4 top-up seat(s): fixed-extra-exhausted" in out
        assert "multiplier 25/4" in out

    def test_traced_fixed_stop_over_the_limit(self, cli, csv_file):
        code, out, err = cli(
            csv_file(SEEDED), "--form", "divisor", "--method", "dhondt",
            "--fixed-extra", "50001", "--trace",
        )
        assert (code, out) == (2, "")
        assert err == (
            "execution error: the run would build at least 50001 sweep rows "
            "(limit 50000)\n"
        )

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("method", ["dhondt", "sainte-lague"])
    def test_a_trillion_fixed_extra_seats(self, cli, csv_file, method, fmt):
        code, out, err = cli(
            csv_file(SEEDED), "--form", "divisor", "--method", method,
            "--fixed-extra", str(10**12), "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            extra = json.loads(out)["seeded_run"]["extra_seats"]
        else:
            extra = [int(line.split()[3]) for line in out.splitlines()[2:4]]
        assert sum(extra) == 10**12

    def test_custom_districts_column(self, cli, csv_file):
        path = csv_file("party,votes,won\nA,20,3\nB,80,1\n")
        code, out, _ = cli(path, "--districts-col", "won")
        assert code == 0
        assert "house 11" in out

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_fixed_extra_over_the_guard(self, cli, csv_file, fmt):
        code, out, err = cli(
            csv_file(SEEDED), "--fixed-extra", str(10**12), "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err == (
            "execution error: 1000000000000 fixed extra seats exceed the guard "
            "of 1000000 top-up seats\n"
        )

    def test_guard_trips_exit_code_2(self, cli, csv_file):
        code, _, err = cli(
            csv_file(GUARDED), "--form", "divisor", "--method", "dhondt", "--trace"
        )
        assert code == 2
        assert err.startswith("execution error:")
        # one message serves library and CLI callers, so it names neither
        assert "with_trace" not in err and "--trace" not in err

    def test_same_run_without_trace_succeeds(self, cli, csv_file):
        code, out, _ = cli(
            csv_file(GUARDED), "--form", "divisor", "--method", "dhondt"
        )
        assert code == 0
        assert "house 2000003" in out


class TestSuites:
    def test_equivalence(self, cli):
        code, out, _ = cli("--suite", "equivalence", "--trials", "30")
        assert code == 0
        assert "equivalence suite: 30 trials" in out
        assert "agreements 30, disagreements 0" in out
        assert "hare within quota: 30/30" in out

    def test_bias(self, cli):
        code, out, _ = cli("--suite", "bias", "--trials", "20", "--master-seed", "2")
        assert code == 0
        assert "bias suite: 20 trials" in out
        assert "rank 1 (20 trials):" in out

    def test_paradox(self, cli):
        code, out, _ = cli(
            "--suite", "paradox", "--trials", "40", "--master-seed", "11"
        )
        assert code == 0
        assert "hare: trial" in out
        assert "dhondt: no witness found" in out
        assert "sainte-lague: no witness found" in out

    def test_paradox_json(self, cli):
        code, out, _ = cli(
            "--suite", "paradox", "--trials", "40", "--master-seed", "11",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "suite", "space", "searches"}
        assert payload["config"]["suite"] == "paradox"
        assert payload["config"]["trials"] == 40
        assert payload["config"]["master_seed"] == 11
        assert payload["suite"] == "paradox"
        space = oracle.InstanceSpace.default(trials=40, master_seed=11)
        assert payload["space"] == serialize.jsonify(space)
        hare, dhondt, sainte_lague = payload["searches"]
        assert [s["method"] for s in payload["searches"]] == list(methods.METHODS)
        witness = hare["witness"]
        assert witness["trial"]["index"] == 0
        assert (witness["smaller_house"], witness["losers"]) == (183, ["P4"])
        assert dhondt["witness"] is None and sainte_lague["witness"] is None

    def test_jobs_are_clamped_to_the_cpu_count(self, cli, inline_pool):
        argv = ("--suite", "equivalence", "--trials", "20", "--format", "json")
        serial = cli(*argv, "--jobs", "1")
        assert cli(*argv, "--jobs", "1000000") == serial
        assert serial[0] == 0
        assert inline_pool == [3]

    def test_parallel_json_is_byte_identical(self, cli):
        for suite in ("equivalence", "bias"):
            argv = ("--suite", suite, "--trials", "40", "--format", "json")
            serial = cli(*argv, "--jobs", "1")
            parallel = cli(*argv, "--jobs", "2")
            assert serial[0] == parallel[0] == 0
            assert serial[1] == parallel[1]


# Modules a plain run must not load: the process pool and what it pulls in
# (multiprocessing, logging), the sha256 that seeds suite trials, the crash
# report and the annotation reader of from_json.
_LAZY_MODULES = (
    "concurrent.futures", "multiprocessing", "hashlib", "logging", "traceback", "typing",
)


def _is_lazy(module):
    return any(module == name or module.startswith(name + ".") for name in _LAZY_MODULES)


_FRESH_RUN = """
import contextlib, io, json, sys
before = set(sys.modules)
from apportion import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append((code, out.getvalue(), sorted(set(sys.modules) - before),
                    sorted(sys.modules)))
print(json.dumps(results))
"""


def _fresh_runs(*argvs):
    """``cli.main`` on each argv in turn, in one fresh interpreter.

    Per call: exit code, stdout, the modules loaded since just before
    ``import apportion.cli`` (so a module that a site hook preloads never
    counts) and every module loaded so far.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartUp:
    def test_a_plain_run_loads_no_suite_pool_or_crash_module(self, csv_file):
        fixed, two_stage = _fresh_runs(
            [csv_file(WORKED), "--seats", "10"],
            [csv_file(SEEDED, "seeded.csv"), "--format", "json"],
        )
        assert fixed[0] == two_stage[0] == 0
        assert "house size 10, total votes 1000" in fixed[1]
        run = json.loads(two_stage[1])["seeded_run"]
        assert run["stop_reason"] == "all-residuals-below-one"
        assert [m for m in two_stage[2] if _is_lazy(m)] == []

    def test_suites_load_sha256_and_only_jobs_load_the_pool(self):
        argv = ["--suite", "equivalence", "--trials", "3", "--format", "json"]
        serial, parallel = _fresh_runs(argv, argv + ["--jobs", "2"])
        code, out, added, loaded = serial
        assert code == 0 and json.loads(out)["suite_report"]["agreements"] == 3
        assert "hashlib" in loaded
        assert [m for m in added if _is_lazy(m) and m != "hashlib"] == []
        assert parallel[:2] == [0, out]
        if (os.cpu_count() or 1) >= 2:  # --jobs is clamped to the CPU count
            assert "concurrent.futures.process" in parallel[3]

    @pytest.mark.parametrize("error", [ValueError("boom"), RuntimeError("boom")])
    def test_a_crash_still_prints_its_traceback(self, cli, csv_file, monkeypatch, error):
        def crash(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_module, "hare_niemeyer", crash)
        code, out, err = cli(csv_file(WORKED), "--seats", "10")
        assert (code, out) == (2, "")
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith(f"{type(error).__name__}: boom\n")

    def test_a_table_run_loads_neither_the_oracle_nor_the_json_writer(self, csv_file):
        [(code, out, added, loaded)] = _fresh_runs([csv_file(WORKED), "--seats", "10"])
        assert code == 0 and "house size 10, total votes 1000" in out
        assert {"apportion.oracle", "apportion.serialize"} & set(loaded) == set()

    def test_a_json_run_loads_the_json_writer_but_not_the_oracle(self, csv_file):
        [(code, out, added, loaded)] = _fresh_runs(
            [csv_file(WORKED), "--seats", "10", "--format", "json"])
        assert code == 0 and json.loads(out)["allocations"][0]["seats"]
        assert "apportion.serialize" in added and "apportion.oracle" not in loaded

    def test_a_suite_run_loads_the_oracle(self):
        [(code, out, added, loaded)] = _fresh_runs(["--suite", "equivalence", "--trials", "2"])
        assert code == 0 and "equivalence suite: 2 trials" in out
        assert "apportion.oracle" in added and "apportion.serialize" not in loaded

    def test_the_package_resolves_a_lazy_module_and_its_names_on_first_use(self):
        code = ("import sys, apportion\n"
                "assert 'apportion.oracle' not in sys.modules\n"
                "assert apportion.oracle.InstanceSpace.default(trials=1).trials == 1\n"
                "assert 'apportion.serialize' not in sys.modules\n"
                "print(apportion.dumps([1]), end='')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[\n  1\n]\n", "")

    def test_dir_of_the_package_lists_every_public_name(self):
        names = dir(apportion)
        assert set(apportion.__all__) | {"__all__", "oracle", "serialize"} <= set(names)
        assert names == sorted(names)
        with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
            apportion.nothing


_FIRST_CALL = """
import contextlib, io, json, sys
from apportion import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def _call(argv):
    """``[exit code, stdout, stderr]`` of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture
def fresh_parser_cache():
    """``main``'s parser is built anew in the test, and not kept after it."""
    cli_module._parser.cache_clear()
    yield
    cli_module._parser.cache_clear()


class TestOneParserPerProcess:
    def test_each_call_matches_a_first_call_in_a_fresh_interpreter(
        self, csv_file, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to it
        close, worked, seeded = (csv_file(CLOSE), csv_file(WORKED, "worked.csv"),
                                 csv_file(SEEDED, "seeded.csv"))
        argvs = [
            [close, "--seats", "9", "--method", "dhondt", "--trace"],
            [close, "--seats", "9", "--method", "dhondt"],
            [close, "--seats", "7", "--tie", "random", "--seed", "5", "--format", "json"],
            [close, "--seats", "7"],
            ["--suite", "bias", "--trials", "4", "--master-seed", "2", "--jobs", "1"],
            [worked, "--seats", "10", "--compare"],
            [worked, "--seats", "10", "--tie", "random"],  # exit 1: no --seed
            [worked, "--seats", "10", "--tie", "coin"],  # exit 1, from argparse
            [worked, "--seats", "10", "--method", "sainte-lague", "--form",
             "multiplicative", "--trace", "--format", "json"],
            ["--help"],
            [seeded, "--cap", "2", "--districts-col", "districts"],
            [seeded.replace("seeded", "missing"), "--seats", "3"],  # exit 1
            [seeded, "--method", "dhondt", "--form", "divisor", "--stop", "fixed",
             "--fixed-extra", "3", "--trace", "--format", "json"],
        ]
        results = [_call(argv) for argv in argvs]
        assert [code for code, _, _ in results] == [0] * 6 + [1, 1, 0, 0, 0, 1, 0]
        env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
        for argv, result in zip(argvs, results):
            proc = subprocess.run(
                [sys.executable, "-c", _FIRST_CALL, json.dumps(argv)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == result, argv

    def test_help_follows_the_width_of_each_call(self, csv_file, monkeypatch):
        assert _call([csv_file(WORKED), "--seats", "3"])[0] == 0
        texts = {}
        for columns in ("200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            texts[columns] = _call(["--help"])
            assert texts[columns] == [0, cli_module.build_parser().format_help(), ""]
        wide, narrow = texts["200"][1], texts["40"][1]
        assert len(narrow.splitlines()) > len(wide.splitlines())

    def test_three_calls_build_one_parser(self, csv_file, monkeypatch, fresh_parser_cache):
        build_parser, built = cli_module.build_parser, []

        def counting_build_parser():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli_module, "build_parser", counting_build_parser)
        path = csv_file(WORKED)
        codes = [_call(argv)[0] for argv in (
            [path, "--seats", "3"],
            [path, "--tie", "coin"],
            ["--suite", "paradox", "--trials", "1"],
        )]
        assert codes == [0, 1, 0]
        assert len(built) == 1 and cli_module._parser() is built[0]
        # the public builder still hands out a parser of its own
        assert build_parser() is not built[0]


class TestBadInvocations:
    @pytest.mark.parametrize(
        "argv,fragment",
        [
            ((), "required unless --suite"),
            (("votes.csv",), "--seats is required"),
            (("votes.csv", "--seats", "-1"), "non-negative"),
            (("votes.csv", "--seats", "10", "--method", "imperiali"), "invalid choice"),
            (("votes.csv", "--seats", "10", "--compare", "--method", "hare"),
             "drop --method"),
            (("votes.csv", "--seats", "10", "--compare", "--trace"), "single-method"),
            (("votes.csv", "--seats", "10", "--tie", "random"), "requires --seed"),
            (("votes.csv", "--seats", "10", "--seed", "4"), "--tie random only"),
            (("votes.csv", "--seats", "10", "--tie", "random", "--seed", str(2**64)),
             "64 bits"),
            (("votes.csv", "--seats", "10", "--trials", "5"), "--suite runs only"),
            (("votes.csv", "--seats", "10", "--cap", "2"), "districts column"),
            (("votes.csv", "--seats", "10", "--method", "dhondt", "--form",
              "sequential"), "hare only"),
            (("votes.csv", "--seats", "10", "--trace"), "--form sequential"),
            (("--suite", "equivalence", "--seats", "5"), "does not apply"),
            (("--suite", "equivalence", "--tie", "random", "--seed", "1"),
             "does not apply"),
            (("--suite", "equivalence", "--jobs", "0"), "at least 1"),
            (("votes.csv", "--stop", "fixed"), "requires --fixed-extra"),
            (("--suite", "equivalence", "--trace"), "--compare and --trace do not"),
            (("--suite", "equivalence", "--tie", "random"), "draws its own"),
            (("votes.csv", "--suite", "equivalence"), "take no input file"),
            (("votes.csv", "--seats", "10", "--compare", "--form", "divisor"),
             "drop --form"),
            (("votes.csv", "--stop", "residual", "--fixed-extra", "2"),
             "implies --stop fixed"),
            (("votes.csv", "--seats", "10", "--method", "hare", "--form", "divisor"),
             "hare supports --form sequential only"),
            (("votes.csv", "--seats", "10", "--tie", "coin"), "argument --tie:"),
            (("votes.csv", "--seats", "10", "--seed", "x"), "argument --seed:"),
            (("--suite", "equivalence", "--trials", "2", "--districts-col", "won"),
             "--districts-col does not apply to --suite runs"),
        ],
    )
    def test_flag_validation(self, cli, csv_file, argv, fragment):
        argv = tuple(csv_file(WORKED) if a == "votes.csv" else a for a in argv)
        code, out, err = cli(*argv)
        assert code == 1
        assert out == ""
        assert fragment in err

    def test_seeded_input_rejects_fixed_house_flags(self, cli, csv_file):
        path = csv_file(SEEDED)
        code, _, err = cli(path, "--seats", "10")
        assert code == 1 and "house size is derived" in err
        code, _, err = cli(path, "--compare")
        assert code == 1 and "fixed-house" in err
        code, _, err = cli(path, "--form", "divisor", "--method", "hare")
        assert code == 1 and "dhondt or sainte-lague" in err
        code, _, err = cli(path, "--form", "divisor", "--method", "dhondt",
                           "--cap", "2")
        assert code == 1 and "sequential" in err
        code, _, err = cli(path, "--method", "dhondt")
        assert code == 1 and "sequential two-stage runs use hare deficits" in err

    def test_help_names_each_argument_by_its_metavar(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "[--seed SEED]" in out and "[input]" in out
        for name in ("TIE_SEED", "TIE_MODE", "INPUT_PATH"):
            assert name not in out

    def test_missing_file(self, cli):
        code, _, err = cli("no-such-file.csv", "--seats", "5")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter converts digit strings of any length",
    )
    def test_count_over_the_digit_limit(self, cli, csv_file):
        digits = sys.get_int_max_str_digits() + 1
        path = csv_file(f"party,votes\nA,5\nB,{'9' * digits}\n")
        code, out, err = cli(path, "--seats", "5")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line 3: votes has {digits} digits")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter converts digit strings of any length",
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ("--seats", "100000"),
            ("--seats", "100000", "--format", "json"),
            ("--seats", "3"),  # only the total votes passes the limit
            ("--seats", "3", "--format", "json"),
        ],
    )
    def test_result_over_the_digit_limit(self, cli, csv_file, flags):
        # each count is within the limit, their sum and products are not
        digits = sys.get_int_max_str_digits()
        path = csv_file(f"party,votes\nA,{'9' * digits}\nB,{'8' * digits}\n")
        code, out, err = cli(path, *flags)
        assert (code, out) == (1, "")
        assert err == f"error: a result has a number over the {digits}-digit limit\n"

    def test_bad_csv(self, cli, csv_file):
        code, _, err = cli(csv_file("party,votes\nA,x\n"), "--seats", "5")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text, line",
        [(f"party,votes\nA,{'9' * 200_000}\n", 2), (f"party,votes\nA,1\n{'p' * 140_000},5\n", 3),
         (f"{'p' * 140_000},votes\nA,1\n", 1)],
        ids=["votes", "party", "header"],
    )
    def test_field_over_the_csv_size_limit(self, cli, csv_file, text, line):
        code, out, err = cli(csv_file(text), "--seats", "5")
        assert (code, out) == (1, "")
        limit = csv.field_size_limit()
        assert err == f"error: line {line}: field larger than field limit ({limit})\n"
        with pytest.raises(InputError, match=f"^line {line}: field larger"):
            parse_votes(text)


# ------------------------------------------------------------------ fuzzing

_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_FAULTS = ["bom", "byte", "blank", "short", "long", "garbage", "party", "header"]
if _DIGIT_LIMIT:
    _FAULTS += ["past-limit", "at-limit"]
_FAULTS += ["huge-votes", "huge-party"]


@st.composite
def _csv_bytes(draw):
    """A valid votes CSV with up to two faults from ``_FAULTS`` worked in."""
    districts = draw(st.booleans())
    k = draw(st.integers(1, 5))
    # with districts, small counts keep every run far below 10**5 top-ups
    rows = [
        [f"P{i}", str(draw(st.integers(0, 100 if districts else 10**6)))]
        + ([str(draw(st.integers(0, 5)))] if districts else [])
        for i in range(k)
    ]
    rows.insert(0, ["party", "votes"] + (["districts"] if districts else []))
    prefix, bad_byte = "", None
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        row = rows[draw(st.integers(1, k))]
        if fault == "bom":
            prefix = "\ufeff"
        elif fault == "byte":
            bad_byte = draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"]))
        elif fault == "blank":
            blank = [draw(st.sampled_from(["", " "]))]
            rows.insert(draw(st.integers(0, len(rows))), blank)
        elif fault == "short":
            row.pop()
        elif fault == "long":
            row.append("1")
        elif fault == "garbage":
            row[-1] = draw(st.sampled_from(["", "x", "-1", "1.5", " 7 ", "1e3", "١٢"]))
        elif fault == "party":
            row[0] = draw(st.sampled_from(["", " P0 ", "P1", "a,b", '"q"', "é"]))
        elif fault == "header":
            rows[0] = draw(st.sampled_from([["name", "votes"], ["party"], rows[0] * 2]))
        elif fault == "past-limit":
            row[-1] = "7" * (_DIGIT_LIMIT + 1)
        elif fault == "huge-votes":  # over csv.field_size_limit()
            row[1:2] = ["9" * 200_000]
        elif fault == "huge-party":
            row[0] = "p" * 140_000
        elif not districts and len(row) > 1:  # at-limit: parses, its sums may not print
            row[1] = draw(st.sampled_from(["9", "5"])) * _DIGIT_LIMIT
    data = (prefix + "\n".join(",".join(row) for row in rows) + "\n").encode("utf-8")
    if bad_byte is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bad_byte + data[at:]
    return data, districts


_FLAGS = st.one_of(
    st.tuples(st.just("--method"), st.sampled_from(["hare", "dhondt", "sainte-lague"])),
    st.tuples(st.just("--form"),
              st.sampled_from(["divisor", "multiplicative", "sequential"])),
    st.sampled_from([("--tie", "random", "--seed", "9"), ("--tie", "random"),
                     ("--seed", "-1"), ("--tie", "random", "--seed", str(2**64))]),
    st.tuples(st.just("--cap"), st.integers(-1, 20).map(str)),
    st.tuples(st.just("--fixed-extra"),
              st.one_of(st.integers(-1, 20), st.just(10**12)).map(str)),
    st.tuples(st.just("--stop"), st.sampled_from(["residual", "fixed"])),
    st.just(("--format", "json")),
    st.just(("--districts-col", "won")),
    st.tuples(st.just("--suite"), st.sampled_from(["equivalence", "bias", "paradox"]),
              st.just("--trials"), st.integers(0, 3).map(str)),  # 10**4 by default
    st.tuples(st.just("--trials"), st.integers(-1, 3).map(str)),
    st.tuples(st.just("--master-seed"), st.integers(-1, 3).map(str)),
    st.tuples(st.just("--jobs"), st.integers(0, 1).map(str)),
    st.just(("--compare",)),
    st.just(("--trace",)),
)


@st.composite
def _invocations(draw):
    """``(argv, stdin bytes)``: mostly runs that fit their input, some that clash."""
    data, districts = draw(_csv_bytes())
    argv = ["-"] if draw(st.sampled_from([True, True, True, True, False])) else []
    if districts:
        seats = draw(st.sampled_from([None, None, None, 5]))
    else:
        seats = draw(
            st.sampled_from([None, -1, 0, 1, 2, 3, 5, 10, 37, 200, 200, 10**12])
        )
    if seats is not None:
        argv += ["--seats", str(seats)]
    for flag in draw(st.lists(_FLAGS, max_size=3)):
        argv += flag
    return argv, data


@settings(max_examples=300, deadline=None)
@given(invocation=_invocations())
def test_fuzzed_invocations_keep_the_exit_code_contract(invocation):
    argv, data = invocation
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data))
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("execution error:")
    else:
        assert code in (0, 1)
        assert (err == "") if code == 0 else err.startswith("error: ")


# Every flag rule's exact message, first one by one and then where several
# rules apply at once, which pins the rule order.  In the argv, "votes.csv"
# stands for a fixed-house input, "seeded.csv" for one with a districts
# column, "empty.csv" for an empty file and "missing.csv" for a path that
# cannot be read.  The first rules run before the input is read, so they win
# over an unreadable path; the rules that turn on a districts column run after.
FLAG_RULES = [
    # the flags a --suite run refuses
    pytest.param(("--suite", "equivalence", "--method", "dhondt"),
                 "--method does not apply to --suite runs", id="suite-method"),
    pytest.param(("--suite", "equivalence", "--form", "divisor"),
                 "--form does not apply to --suite runs", id="suite-form"),
    pytest.param(("--suite", "equivalence", "--seats", "5"),
                 "--seats does not apply to --suite runs", id="suite-seats"),
    pytest.param(("--suite", "equivalence", "--seed", "1"),
                 "--seed does not apply to --suite runs", id="suite-seed"),
    pytest.param(("--suite", "equivalence", "--districts-col", "won"),
                 "--districts-col does not apply to --suite runs", id="suite-districts-col"),
    pytest.param(("--suite", "equivalence", "--cap", "2"),
                 "--cap does not apply to --suite runs", id="suite-cap"),
    pytest.param(("--suite", "equivalence", "--fixed-extra", "2"),
                 "--fixed-extra does not apply to --suite runs", id="suite-fixed-extra"),
    pytest.param(("--suite", "equivalence", "--stop", "fixed"),
                 "--stop does not apply to --suite runs", id="suite-stop"),
    pytest.param(("--suite", "bias", "--compare"),
                 "--compare and --trace do not apply to --suite runs", id="suite-compare"),
    pytest.param(("--suite", "paradox", "--trace"),
                 "--compare and --trace do not apply to --suite runs", id="suite-trace"),
    pytest.param(("--suite", "equivalence", "--tie", "random"),
                 "--tie does not apply to --suite runs (each trial draws its own)",
                 id="suite-tie"),
    pytest.param(("votes.csv", "--suite", "equivalence"),
                 "--suite runs take no input file", id="suite-input"),
    pytest.param(("--suite", "equivalence", "--jobs", "0"),
                 "--jobs must be at least 1", id="suite-jobs-zero"),
    # the flags of --suite runs only, and the input file of every other run
    pytest.param((), "an input file (or '-') is required unless --suite is given",
                 id="no-input"),
    pytest.param(("votes.csv", "--seats", "10", "--trials", "5"),
                 "--trials applies to --suite runs only", id="trials-without-suite"),
    pytest.param(("votes.csv", "--seats", "10", "--master-seed", "1"),
                 "--master-seed applies to --suite runs only",
                 id="master-seed-without-suite"),
    pytest.param(("votes.csv", "--seats", "10", "--jobs", "2"),
                 "--jobs applies to --suite runs only", id="jobs-without-suite"),
    # --compare, --tie and the two-stage stop
    pytest.param(("votes.csv", "--seats", "10", "--compare", "--method", "hare"),
                 "--compare runs all methods; drop --method", id="compare-method"),
    pytest.param(("votes.csv", "--seats", "10", "--compare", "--form", "divisor"),
                 "--compare uses each method's canonical form; drop --form",
                 id="compare-form"),
    pytest.param(("votes.csv", "--seats", "10", "--compare", "--trace"),
                 "--trace applies to single-method runs", id="compare-trace"),
    pytest.param(("votes.csv", "--seats", "10", "--tie", "random"),
                 "--tie random requires --seed", id="random-without-seed"),
    pytest.param(("votes.csv", "--seats", "10", "--tie", "random", "--seed", str(2**64)),
                 "--seed must fit in 64 bits", id="seed-too-large"),
    pytest.param(("votes.csv", "--seats", "10", "--tie", "random", "--seed", "-1"),
                 "--seed must fit in 64 bits", id="seed-negative"),
    pytest.param(("votes.csv", "--seats", "10", "--seed", "4"),
                 "--seed applies to --tie random only", id="seed-without-random"),
    pytest.param(("seeded.csv", "--stop", "fixed"),
                 "--stop fixed requires --fixed-extra", id="stop-fixed-without-extra"),
    pytest.param(("seeded.csv", "--stop", "residual", "--fixed-extra", "2"),
                 "--fixed-extra implies --stop fixed", id="residual-with-extra"),
    # the rules that turn on a districts column
    pytest.param(("seeded.csv", "--seats", "10"),
                 "--seats does not apply to two-stage runs (the house size is derived)",
                 id="two-stage-seats"),
    pytest.param(("seeded.csv", "--compare"),
                 "--compare applies to fixed-house runs", id="two-stage-compare"),
    pytest.param(("seeded.csv", "--method", "dhondt"),
                 "sequential two-stage runs use hare deficits; "
                 "pick --form divisor with --method dhondt or sainte-lague",
                 id="two-stage-sequential-dhondt"),
    pytest.param(("seeded.csv", "--method", "sainte-lague", "--form", "sequential"),
                 "sequential two-stage runs use hare deficits; "
                 "pick --form divisor with --method dhondt or sainte-lague",
                 id="two-stage-sequential-sainte-lague"),
    pytest.param(("seeded.csv", "--form", "divisor"),
                 "two-stage divisor runs need --method dhondt or sainte-lague",
                 id="two-stage-hare-divisor"),
    pytest.param(("votes.csv", "--seats", "10", "--cap", "2"),
                 "two-stage options require a districts column", id="fixed-house-cap"),
    pytest.param(("votes.csv", "--seats", "10", "--stop", "fixed", "--fixed-extra", "2"),
                 "two-stage options require a districts column", id="fixed-house-stop"),
    pytest.param(("votes.csv", "--seats", "10", "--stop", "residual"),
                 "two-stage options require a districts column",
                 id="fixed-house-residual"),
    pytest.param(("votes.csv",), "--seats is required without a districts column",
                 id="fixed-house-no-seats"),
    pytest.param(("votes.csv", "--seats", "10", "--trace"),
                 "the largest-remainder form has no step trace; use --form sequential",
                 id="largest-remainder-trace"),
    pytest.param(("votes.csv", "--seats", "10", "--form", "multiplicative"),
                 "hare supports --form sequential only", id="hare-multiplicative"),
    pytest.param(("votes.csv", "--seats", "10", "--method", "dhondt", "--form",
                  "sequential"),
                 "--form sequential applies to hare only", id="dhondt-sequential"),
    # several rules apply: the first one in the order wins
    pytest.param(("--suite", "equivalence", "--method", "dhondt", "--seats", "5"),
                 "--method does not apply to --suite runs", id="first-suite-flag-wins"),
    pytest.param(("--suite", "equivalence", "--stop", "fixed", "--trace"),
                 "--stop does not apply to --suite runs", id="suite-flag-before-trace"),
    pytest.param(("--suite", "equivalence", "--trace", "--tie", "random"),
                 "--compare and --trace do not apply to --suite runs",
                 id="suite-trace-before-tie"),
    pytest.param(("--suite", "equivalence", "--tie", "random", "--seed", "1"),
                 "--seed does not apply to --suite runs", id="suite-seed-before-tie"),
    pytest.param(("votes.csv", "--suite", "equivalence", "--tie", "random"),
                 "--tie does not apply to --suite runs (each trial draws its own)",
                 id="suite-tie-before-input"),
    pytest.param(("votes.csv", "--suite", "equivalence", "--jobs", "0"),
                 "--suite runs take no input file", id="suite-input-before-jobs"),
    pytest.param(("--trials", "5", "--compare", "--method", "hare"),
                 "an input file (or '-') is required unless --suite is given",
                 id="no-input-before-trials"),
    pytest.param(("votes.csv", "--jobs", "0", "--trials", "5"),
                 "--trials applies to --suite runs only", id="trials-before-jobs"),
    pytest.param(("votes.csv", "--jobs", "0"),
                 "--jobs applies to --suite runs only", id="jobs-without-suite-before-zero"),
    pytest.param(("votes.csv", "--master-seed", "1", "--compare", "--method", "hare"),
                 "--master-seed applies to --suite runs only",
                 id="suite-only-before-compare"),
    pytest.param(("votes.csv", "--compare", "--method", "hare", "--form", "divisor",
                  "--trace"),
                 "--compare runs all methods; drop --method", id="compare-method-first"),
    pytest.param(("votes.csv", "--compare", "--form", "divisor", "--trace"),
                 "--compare uses each method's canonical form; drop --form",
                 id="compare-form-before-trace"),
    pytest.param(("votes.csv", "--compare", "--trace", "--tie", "random"),
                 "--trace applies to single-method runs", id="compare-trace-before-tie"),
    pytest.param(("votes.csv", "--tie", "random", "--stop", "fixed"),
                 "--tie random requires --seed", id="random-without-seed-before-stop"),
    pytest.param(("votes.csv", "--tie", "random", "--seed", "-1", "--stop", "fixed"),
                 "--seed must fit in 64 bits", id="seed-range-before-stop"),
    pytest.param(("votes.csv", "--seed", "4", "--stop", "fixed"),
                 "--seed applies to --tie random only", id="seed-before-stop"),
    pytest.param(("votes.csv", "--stop", "fixed"),
                 "--stop fixed requires --fixed-extra", id="stop-before-districts"),
    pytest.param(("seeded.csv", "--seats", "10", "--compare"),
                 "--seats does not apply to two-stage runs (the house size is derived)",
                 id="two-stage-seats-first"),
    pytest.param(("seeded.csv", "--compare", "--form", "sequential"),
                 "--compare uses each method's canonical form; drop --form",
                 id="compare-form-before-two-stage"),
    pytest.param(("seeded.csv", "--seats", "10", "--method", "dhondt"),
                 "--seats does not apply to two-stage runs (the house size is derived)",
                 id="two-stage-seats-before-method"),
    pytest.param(("votes.csv", "--cap", "2", "--method", "dhondt", "--form", "sequential"),
                 "two-stage options require a districts column",
                 id="districts-before-seats"),
    pytest.param(("votes.csv", "--method", "dhondt", "--form", "sequential"),
                 "--seats is required without a districts column",
                 id="seats-before-form"),
    pytest.param(("missing.csv", "--seed", "4"),
                 "--seed applies to --tie random only", id="flags-before-unreadable-input"),
    pytest.param(("empty.csv",), "empty input", id="input-before-districts-rules"),
]


@pytest.mark.parametrize("argv,message", FLAG_RULES)
def test_each_flag_rule_and_which_one_wins(cli, csv_file, tmp_path, argv, message):
    paths = {
        "votes.csv": csv_file(WORKED),
        "seeded.csv": csv_file(SEEDED, "seeded.csv"),
        "empty.csv": csv_file("", "empty.csv"),
        "missing.csv": str(tmp_path / "missing.csv"),
    }
    assert cli(*(paths.get(arg, arg) for arg in argv)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [("--method", "dhondt"), ("--method", "sainte-lague"),
                                   ("--compare",)])
def test_a_house_past_the_index_range_exits_at_the_guard(cli, csv_file, flags):
    votes = csv_file("party,votes\na,5\nb,5\nc,3\n")
    assert cli(votes, "--seats", str(10**20), *flags) == (2, "", (
        "execution error: the run would build at least 38461538461538461538 tie events "
        "(limit 50000)\n"
    ))


def test_a_fixed_stop_over_huge_districts_still_runs(cli, csv_file):
    # the pilot's bisection bracket is 1e20 seats wide
    path = csv_file("party,votes,districts\n"
                    f"a,5,{5 * 10**19}\nb,5,{5 * 10**19}\nc,3,0\n", "seeded.csv")
    code, out, err = cli(path, "--method", "dhondt", "--form", "divisor", "--fixed-extra", "5",
                         "--format", "json")
    assert (code, err) == (0, "")
    run = json.loads(out)["seeded_run"]
    assert run["extra_seats"] == [0, 0, 5]
    assert run["stop_reason"] == "fixed-extra-exhausted"


def test_parse_votes_reads_a_file_like_object():
    assert parse_votes(io.StringIO(SEEDED)) == parse_votes(SEEDED)


@pytest.mark.parametrize("flags", [
    ("--suite", "equivalence"), ("--suite", "bias"), ("--suite", "paradox"),
    ("--suite", "equivalence", "--jobs", "2"),
])
def test_a_suite_over_the_trial_limit_exits_at_the_guard(cli, flags):
    trials = 10**20
    assert cli(*flags, "--trials", str(trials)) == (2, "", (
        f"execution error: the suite would run {trials} trials (limit 10000000)\n"
    ))


def test_the_run_rules_come_before_the_data_rows(cli, csv_file, monkeypatch):
    votes = csv_file("party,votes\nA,many\nA,-1\nB\n")
    monkeypatch.setattr(cli_module, "parse_votes", mock.Mock(side_effect=AssertionError))
    assert cli(votes) == (1, "", "error: --seats is required without a districts column\n")
