"""tools/against.py, the reports that run this tree and another checkout."""

import importlib.util
import shutil
from pathlib import Path

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


def test_lines_against_the_same_tree_change_nothing():
    text = against.lines(str(against.HEAD), None)
    assert " total\n" in text
    assert "change 0 (target 2740)" in text
    assert text.splitlines()[-2].endswith("change 0")


def test_lines_say_when_the_parent_checkout_is_missing(tmp_path):
    missing = tmp_path / "missing"
    text = against.lines(str(missing), None)
    assert "HEAD^" not in text and "change" not in text
    assert f"parent checkout unavailable: no src/apportion/*.py under {missing}" in text
    assert text.splitlines()[-3].endswith(" at HEAD")


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
                                   "apportion.seeded", "apportion.types"]
