"""End-to-end command-line behaviour: parsing, rendering, exit codes."""

import io
import json
import re
import sys
from fractions import Fraction

import pytest

from apportion import (
    SeedDistribution,
    VoteTally,
    allocation_from_json,
    compute_quotas,
    hare_niemeyer,
    highest_averages,
    quota_report_from_json,
    seeded_run_from_json,
    seeded_sequential_hare,
    trace_from_json,
)
from apportion.cli import main, parse_votes
from apportion.types import InputError

WORKED = "party,votes\nA,600\nB,300\nC,100\n"
THREE_WAY = "party,votes\nA,53\nB,24\nC,23\n"
CLOSE = "party,votes\nA,78\nB,78\nC,422\nD,422\n"
SEEDED = "party,votes,districts\nA,20,3\nB,80,1\n"
GUARDED = "party,votes,districts\nA,1,3\nB,1000000,0\n"


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

    def test_approximation_beyond_the_float_range(self, cli, csv_file):
        big = 10**311
        path = csv_file(f"party,votes\nA,{big + 1}\nB,{3 * big + 2}\n")
        code, out, err = cli(path, "--seats", "7")
        assert (code, err) == (0, "")
        exact, approx = re.search(r"ideal quota (\S+) \(~(\S+)\)", out).groups()
        assert Fraction(exact) == Fraction(4 * big + 3, 7)
        assert re.fullmatch(r"\d{311}\.\d{4}", approx)
        assert abs(Fraction(approx) - Fraction(exact)) <= Fraction(1, 20_000)


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

    def test_custom_districts_column(self, cli, csv_file):
        path = csv_file("party,votes,won\nA,20,3\nB,80,1\n")
        code, out, _ = cli(path, "--districts-col", "won")
        assert code == 0
        assert "house 11" in out

    def test_guard_trips_exit_code_2(self, cli, csv_file):
        code, _, err = cli(
            csv_file(GUARDED), "--form", "divisor", "--method", "dhondt", "--trace"
        )
        assert code == 2
        assert err.startswith("execution error:")
        assert "with_trace=False" in err

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

    def test_parallel_json_is_byte_identical(self, cli):
        argv = ("--suite", "equivalence", "--trials", "40", "--format", "json")
        serial = cli(*argv, "--jobs", "1")
        parallel = cli(*argv, "--jobs", "2")
        assert serial[0] == parallel[0] == 0
        assert serial[1] == parallel[1]


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

    def test_bad_csv(self, cli, csv_file):
        code, _, err = cli(csv_file("party,votes\nA,x\n"), "--seats", "5")
        assert code == 1
        assert "line 2" in err
