"""tools/against.py, the reports that run this tree and another checkout."""

import importlib.util
import json
import shutil
import types
from pathlib import Path

import pytest

from apportion import cli

_SPEC = importlib.util.spec_from_file_location(
    "against", Path(__file__).resolve().parents[1] / "tools" / "against.py"
)
against = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(against)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring
over two lines."""

# a comment
TEXT = """a string that is
not a docstring"""


def total(a,
          b):
    """Function docstring."""

    return a + b  # a trailing comment


class Box:
    """Class docstring
    on two lines."""
    size = 1
'''
    # TEXT (2 lines), the def (2), the return, the class line and its size
    assert against.code_lines(source) == 7


def _cases(tmp_path):
    votes = against.write_csv(str(tmp_path / "votes" / "three.csv"), (53, 24, 23))
    return [
        (("table",), [*against.CLI, votes, "--seats", "10"]),
        (("json",), [*against.CLI, votes, "--seats", "10", "--format", "json"]),
    ]


def _rows(text):
    return text.splitlines()[4:]


def test_sha_table_reads_yes_for_the_same_tree(tmp_path):
    text = against.sha_table(str(against.HEAD), "CLI output", ("format",), _cases(tmp_path))
    assert text.splitlines()[:4] == [
        "### CLI output", "", "| format | parent | this commit | equal |", "|---|---|---|---|"
    ]
    assert [row.split(" | ")[-1] for row in _rows(text)] == ["yes |", "yes |"]


def test_sha_table_reads_no_where_one_byte_differs(tmp_path):
    parent = tmp_path / "parent"
    shutil.copytree(against.HEAD / "src", parent / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = parent / "src" / "apportion" / "cli.py"
    source = cli.read_text()
    assert source.count('f"house size {') == 1  # the table's first line only
    cli.write_text(source.replace('f"house size {', 'f"House size {'))
    rows = _rows(against.sha_table(str(parent), "CLI output", ("format",), _cases(tmp_path)))
    assert [row.split(" | ")[0] for row in rows] == ["| table", "| json"]
    assert [row.split(" | ")[-1] for row in rows] == ["NO |", "yes |"]


def test_rows_read_yes_for_the_same_tree_and_no_where_a_row_differs(tmp_path, monkeypatch):
    monkeypatch.setattr(against, "ROW_TRIALS", 2)
    text = against.rows(str(against.HEAD), None)
    assert text.splitlines()[:4] == [
        "### Trace rows sha256 against the parent commit (2 draws)", "",
        "| trace | rows | parent | this commit | equal |", "|---|---|---|---|---|",
    ]
    traces = ("award log", "divisor table", "two-stage award log")
    parts = ("ends", "rows", "step -3", "step 2")
    rows = [row.strip("|").split(" | ") for row in _rows(text)]
    assert [(trace.strip(), part) for trace, part, *_ in rows] == [
        (trace, part) for trace in traces for part in parts]
    assert {row[-1].strip() for row in rows} == {"yes"}
    parent = tmp_path / "parent"
    shutil.copytree(against.HEAD / "src", parent / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = parent / "src" / "apportion" / "types.py"
    text = source.read_text()
    assert text.count("DivisorStep(i + 1, ") == 1
    source.write_text(text.replace("DivisorStep(i + 1, ", "DivisorStep(i + 2, "))
    rows = [row.strip("|").split(" | ") for row in _rows(against.rows(str(parent), None))]
    assert {(trace.strip(), equal.strip()) for trace, *_, equal in rows} == {
        ("divisor table", "NO"), ("award log", "yes"), ("two-stage award log", "yes")}

def test_a_digest_script_that_prints_nothing_fails_the_report(tmp_path):
    with pytest.raises(SystemExit, match="^title: 0 digests in the parent, 0 in this commit$"):
        against.digest_table(str(tmp_path), "title", ("label",), ["-c", "raise SystemExit(1)"])

def test_count_diffs_list_only_a_differing_count_or_byte_metric():
    parent = {
        "cli.main.calls": {"value": 460, "unit": "count"},
        "cli.main.self_ms": {"value": 0.8, "unit": "ms"},
        "pass.output_bytes": {"value": 9_000, "unit": "B"},
    }
    head = {
        "cli.main.calls": {"value": 461, "unit": "count"},
        "cli.main.self_ms": {"value": 0.9, "unit": "ms"},
        "pass.output_bytes": {"value": 9_000, "unit": "B"},
    }
    assert against.count_diffs("suite", parent, head) == ["| suite | cli.main.calls | 460 | 461 |"]


def _module_rows(text):
    """Each file row of a ``lines`` report, the total's included: its name
    and its numbers."""
    return {row.split()[-1]: list(map(int, row.split()[:-1]))
            for row in text.splitlines()[2:] if row.split()[0].isdigit()}


def test_lines_against_the_same_tree_change_nothing(tmp_path):
    text = against.lines(str(against.HEAD), None)
    assert " total\n" in text
    assert "change 0 (target 2740)" in text
    assert text.splitlines()[-2].endswith("change 0")
    assert text.splitlines()[1].split() == ["lines", "HEAD^", "lines", "HEAD", "code",
                                            "HEAD^", "code", "HEAD"]
    rows = _module_rows(text)
    modules = sorted(Path(against.HEAD, "src/apportion").glob("*.py"))
    assert list(rows) == [str(path.relative_to(against.HEAD)) for path in modules] + ["total"]
    for path, (lines, same, code, same_code) in zip(modules, rows.values()):
        assert lines == same == path.read_text().count("\n")
        assert code == same_code == against.code_lines(path.read_text())
    assert rows["total"] == [sum(column) for column in zip(*list(rows.values())[:-1])]
    # a module that only one tree holds reads 0 in the other
    parent = tmp_path / "parent"
    shutil.copytree(Path(against.HEAD, "src/apportion"), parent / "src/apportion")
    (parent / "src/apportion/gone.py").write_text("# a comment\nGONE = 1\n")
    (parent / "src/apportion/types.py").unlink()
    moved = _module_rows(against.lines(str(parent), None))
    kept = rows["src/apportion/types.py"]
    assert moved.pop("src/apportion/gone.py") == [2, 0, 1, 0]
    assert moved.pop("src/apportion/types.py") == [0, kept[1], 0, kept[3]]
    assert moved.pop("total")[1::2] == rows["total"][1::2]
    assert all(row[0] == row[1] and row[2] == row[3] for row in moved.values())


def test_lines_say_when_the_parent_checkout_is_missing(tmp_path):
    missing = tmp_path / "missing"
    text = against.lines(str(missing), None)
    assert "HEAD^" not in text and "change" not in text
    assert f"parent checkout unavailable: no src/apportion/*.py under {missing}" in text
    assert text.splitlines()[-3].endswith(" at HEAD")
    assert text.splitlines()[1].split() == ["lines", "HEAD", "code", "HEAD"]
    rows = _module_rows(text)
    assert rows == {path: row[1::2] for path, row in _module_rows(
        against.lines(str(against.HEAD), None)).items()}


def test_json_digests_do_not_depend_on_the_input_directory(tmp_path):
    digests = set()
    for folder in (tmp_path / "one", tmp_path / "two" / "deeper"):
        against.write_csv(str(folder / "three.csv"), (53, 24, 23))
        case = (("json",), [*against.CLI, "three.csv", "--seats", "10", "--format", "json"])
        text = against.sha_table(str(against.HEAD), "CLI output", ("format",), [case],
                                 cwd=str(folder))
        digests.add(_rows(text)[0].split(" | ")[1])
    assert len(digests) == 1


def test_input_reports_name_their_inputs_from_their_own_directory(tmp_path, monkeypatch):
    seen = []

    def record(parent, title, columns, cases, cwd=None):
        seen.append((cwd, [args for _, args in cases]))
        return ""

    monkeypatch.setattr(against, "sha_table", record)
    against.traced(str(tmp_path), str(tmp_path))
    against.two_stage(str(tmp_path), str(tmp_path))
    assert len(seen) == 2
    for cwd, cases in seen:
        for args in cases:
            name = args[len(against.CLI)]
            assert "/" not in name and (Path(cwd) / name).is_file()


def test_calls_time_the_tree_against_itself_in_one_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(against, "ROUNDS", 1)
    monkeypatch.setattr(against, "CALLS", {
        "k = 6 table": ["k6.csv", "--seats", "10"],
        "k = 20 JSON": ["k20.csv", "--seats", "20", "--format", "json"],
    })
    text = against.calls(str(against.HEAD), str(tmp_path))
    assert text.splitlines()[:4] == [
        "### Median us per in-process `cli.main` call (100 calls a side)", "",
        "| call | parent | this commit | ratio |", "|---|---|---|---|",
    ]
    rows = [row.strip("|").split(" | ") for row in _rows(text)]
    assert [row[0].strip() for row in rows] == ["`k = 6 table`", "`k = 20 JSON`"]
    for _, old, new, ratio in rows:
        assert float(old) > 0 and float(new) > 0
        assert float(ratio) > 0


def test_every_call_reads_an_input_the_report_writes(tmp_path, monkeypatch, capsys):
    jobs = []

    def worker(argv, cwd, stdout, check):
        _, argvs, _ = json.loads(argv[-1])  # roots, argvs, rounds
        for args in argvs:
            if args[0].endswith(".csv"):
                assert (Path(cwd) / args[0]).is_file()
        jobs.append(argvs)
        times = [[1.0] * 100 for _ in argvs]
        return types.SimpleNamespace(stdout=json.dumps([times, times]))

    monkeypatch.setattr(against.subprocess, "run", worker)
    text = against.calls(str(against.HEAD), str(tmp_path))
    assert jobs == [list(against.CALLS.values())]
    assert len(_rows(text)) == len(against.CALLS)
    # the two-stage case is a JSON run of about 10**4 top-ups at k = 12
    assert cli.main([str(tmp_path / "k12-two-stage.csv"), "--format", "json"]) == 0
    run = json.loads(capsys.readouterr().out)["seeded_run"]
    assert len(run["party_ids"]) == 12
    assert 9_000 <= run["stop_iteration"] == len(run["awards"]) <= 11_000


def test_the_tie_heavy_calls_stay_under_the_cell_limit(tmp_path, monkeypatch, capsys):
    def worker(argv, cwd, stdout, check):
        times = [[1.0] * 100 for _ in against.CALLS]
        return types.SimpleNamespace(stdout=json.dumps([times, times]))

    monkeypatch.setattr(against.subprocess, "run", worker)
    against.calls(str(against.HEAD), str(tmp_path))
    capsys.readouterr()
    for name in ("k = 200 equal votes, N = 400",
                 "k = 200 equal votes --trace sequential Hare, N = 400"):
        path, *flags = against.CALLS[name]
        assert cli.main([str(tmp_path / path), *flags, "--format", "json"]) == 0
        events = json.loads(capsys.readouterr().out)["allocations"][0]["tie_events"]
        assert len(events) == 398
        assert sum(len(e["tied"]) + len(e["winners"]) for e in events) == 40_596


def test_startup_times_the_import_and_lists_the_modules_it_loads(monkeypatch):
    monkeypatch.setattr(against, "PAIRS", 2)
    text = against.startup(str(against.HEAD), None)
    assert text.splitlines()[:4] == [
        "### `import apportion.cli` in a fresh interpreter (2 alternating pairs)", "",
        "| tree | median ms | quartiles ms | modules loaded |", "|---|---|---|---|",
    ]
    rows = [row.strip("|").split(" | ") for row in _rows(text)]
    assert [row[0].strip() for row in rows] == ["parent", "this commit"]
    for _, median, quartiles, modules in rows:
        low, high = map(float, quartiles.split("-"))
        assert 0 < low <= float(median) <= high
        assert modules.split() == ["apportion", "apportion.cli", "apportion.methods",
                                   "apportion.types"]
