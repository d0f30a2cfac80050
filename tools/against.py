"""Run this tree and another checkout on the same inputs; tabulate where they differ.

Usage: python3 tools/against.py PARENT_ROOT [REPORT ...]

PARENT_ROOT is another checkout, usually the parent commit (``git worktree
add <dir> HEAD^``).  Each report prints one markdown table; all run when none
is named.  ``tracer`` lists the count metrics (calls, seats, steps, bytes) of
one traced bench pass that differ; ``suites``, ``engines``, ``traced`` and
``two-stage`` compare the sha256 of each suite's JSON and table, of 2,000
seeded draws run by the untraced table, sweep and jump, and of traced and
two-stage CLI output (two-stage as JSON and table, each with and without
``--trace``) at k = 50 with varied and with equal votes; ``calls`` gives the median
us per in-process ``cli.main`` call, ``startup`` the median and quartiles of the
time of ``import apportion.cli`` in fresh interpreters, alternating the trees,
with the package and ``json`` modules that import loads, and ``lines`` the size
of src/apportion.

``calls`` runs both trees in one worker process: it loads each tree's
``src/apportion`` as a package under a name of its own (the package imports
its own modules only relatively) and swaps which tree goes first on every
call, so drift in the machine's speed falls on both.  Every other report runs
each command in a subprocess with that root's ``src`` on ``PYTHONPATH``, one
interpreter per tree.  A CLI case on an input file, a ``calls`` case included,
runs in the file's directory and names it by its bare file name: the CLI's
JSON echoes the input path, and so the digests do not depend on where the
inputs were written.  Every other command runs in its root.
"""

import ast
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
CLI = ("-m", "apportion.cli")


def env(root):
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def run(root, args, cwd=None):
    """Standard output, as bytes, of ``python args`` run in ``cwd`` (default ``root``)."""
    return subprocess.run([sys.executable, *args], cwd=cwd or root, env=env(root),
                          stdout=subprocess.PIPE).stdout


def table(title, columns, rows):
    """A markdown table of ``(labels, parent, head)`` rows, each marked equal or not."""
    columns = (*columns, "parent", "this commit", "equal")
    lines = [f"### {title}", "", f"| {' | '.join(columns)} |", "|---" * len(columns) + "|"]
    lines += [f"| {' | '.join((*labels, old, new, 'yes' if old == new else 'NO'))} |"
              for labels, old, new in rows]
    return "\n".join(lines)


def sha_table(parent, title, columns, cases, cwd=None):
    """The table of the sha256 of each ``(labels, args)`` case's output in both
    trees, each run in ``cwd`` if given (see :func:`run`)."""
    def sha(root, args):
        return hashlib.sha256(run(root, args, cwd)).hexdigest()[:16]
    return table(title, columns, [(labels, sha(parent, args), sha(HEAD, args))
                                  for labels, args in cases])


def write_csv(path, *columns):
    """A CSV of parties P0, P1, ... with a votes and an optional districts column."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    rows = [("party", "votes", "districts")[:len(columns) + 1]]
    rows += [(f"P{i}", *row) for i, row in enumerate(zip(*columns))]
    with open(path, "w") as out:
        out.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return path


def count_diffs(workload, parent, head):
    """Rows for each count or byte metric whose value differs."""
    rows = []
    for name in sorted(set(head) | set(parent)):
        new, old = head.get(name, {}), parent.get(name, {})
        unit = new.get("unit", old.get("unit"))
        if unit in ("count", "B") and new.get("value") != old.get("value"):
            rows.append(f"| {workload} | {name} | {old.get('value')} | {new.get('value')} |")
    return rows


def tracer(parent, inputs):
    rows = []
    for workload in ("fixed-house", "suite", "two-stage", "traced"):
        head, old = (
            json.loads(run(root, ["bench/run.py", "--workload", workload, "--seconds", "0",
                                  "--trace", "1"]).splitlines()[-1])["metrics"]
            for root in (HEAD, parent)
        )
        rows += count_diffs(workload, old, head)
    body = ("| workload | metric | parent | this commit |\n|---|---|---|---|\n" + "\n".join(rows)
            if rows else "Every count metric equals the parent's.")
    return f"### Tracer count metrics against the parent commit\n\n{body}"


def suites(parent, inputs):
    return sha_table(parent, "Suite output sha256 against the parent commit",
                     ("suite", "jobs", "format"), [
        ((suite, jobs, fmt), [*CLI, "--suite", suite, "--trials", "2000", "--master-seed", "7",
                              "--jobs", jobs, "--format", fmt])
        for suite in ("equivalence", "bias", "paradox") for jobs in ("1", "2")
        for fmt in ("json", "table")
    ])


ENGINES = """
import hashlib, random
from apportion import (DHONDT, SAINTE_LAGUE, TiePolicy, VoteTally, dumps,
                       highest_averages, jump_allocation, multiplicative)
ROUNDING = {DHONDT: "floor", SAINTE_LAGUE: "nearest"}
rng = random.Random(18)
digests = {}
for trial in range(2_000):
    kind = ("wide", "tie-prone")[trial % 2]
    k = rng.randint(1, 50)
    if kind == "wide":
        votes = [rng.randint(0, 10**12) for _ in range(k)]
    else:  # zeros, equal votes and small multiples of one unit
        unit = rng.choice((1, 7, 1_000, 10**9))
        votes = [unit * rng.randint(0, 6) for _ in range(k)]
    votes[rng.randrange(k)] += 1  # some party has votes
    method = rng.choice((DHONDT, SAINTE_LAGUE))
    tie = TiePolicy("random", rng.getrandbits(64)) if rng.random() < 0.75 else TiePolicy()
    tally = VoteTally(tuple(f"P{i}" for i in range(k)), tuple(votes))
    n = rng.randint(0, 5_000)
    outputs = {
        f"table-{method}": highest_averages(tally, n, method, tie, with_trace=False)[0],
        f"sweep-{ROUNDING[method]}": multiplicative(
            tally, n, ROUNDING[method], tie=tie, with_trace=False),
        f"jump-{method}": jump_allocation(tally, n, method, tie),
    }
    for engine, output in outputs.items():
        digests.setdefault((kind, engine), hashlib.sha256()).update(dumps(output).encode())
for (kind, engine), digest in sorted(digests.items()):
    print(kind, engine, digest.hexdigest()[:16])
"""


def engines(parent, inputs):
    old, new = ([line.split() for line in run(root, ["-c", ENGINES]).decode().splitlines()]
                for root in (parent, HEAD))
    return table("Untraced divisor engines sha256 against the parent commit", ("votes", "engine"),
                 [(line[:2], line[2], other[2]) for line, other in zip(old, new)])


def vote_sets(seed, low):
    """k = 50 varied votes drawn from ``seed``, and equal ones (a tie at almost every seat)."""
    rng = random.Random(seed)
    return {"varied": [rng.randint(low, 1_000_000) for _ in range(50)], "equal": [1_000] * 50}


def traced(parent, inputs):
    folder, sets = f"{inputs}/traced-inputs", vote_sets(16, 1_000)
    for name, votes in sets.items():
        write_csv(f"{folder}/{name}.csv", votes)
    return sha_table(parent, "Traced output sha256 against the parent commit",
                     ("votes", "run", "format"), [
        ((name, flags, fmt), [*CLI, f"{name}.csv", *flags.split(), "--format", fmt,
                              "--seats", "3000", "--trace"])
        for name in sets
        for flags in ("--method dhondt", "--method sainte-lague",
                      "--method hare --form sequential")
        for fmt in ("table", "json")
    ], cwd=folder)


def two_stage(parent, inputs):
    folder, sets, target = f"{inputs}/two-stage-inputs", vote_sets(17, 10_000), 20_000
    for name, votes in sets.items():
        # near-proportional districts, and an overhang for the largest
        # party that keeps the residual stop about `target` top-ups away
        total = sum(votes)
        big = max(range(50), key=votes.__getitem__)
        districts = [target * v // total for v in votes]
        others = sum(districts) - districts[big]
        districts[big] = ((target + others) * votes[big] + total) // (total - votes[big]) + 1
        write_csv(f"{folder}/{name}.csv", votes, districts)
    # each traced run here stays under the trace guards (MAX_TRACE_ROWS, MAX_TRACE_CELLS)
    return sha_table(parent, "Two-stage output sha256 against the parent commit",
                     ("votes", "run", "format"), [
        ((name, flags or "residual", fmt),
         [*CLI, f"{name}.csv", *flags.split(), "--format", *fmt.split()])
        for name in sets
        for flags in ("", "--cap 10000", "--fixed-extra 20000", "--method dhondt --form divisor",
                      "--method dhondt --form divisor --stop fixed --fixed-extra 20000",
                      "--method sainte-lague --form divisor",
                      "--method sainte-lague --form divisor --stop fixed --fixed-extra 20000")
        for fmt in ("json", "table", "json --trace", "table --trace")
    ], cwd=folder)


WORKER = """
import contextlib, importlib.util, io, json, os, sys, time
roots, argvs, rounds = json.loads(sys.argv[1])
mains = []
for side, root in enumerate(roots):  # each tree's package under a name of its own
    name, folder = f"apportion_{side}", os.path.join(root, "src", "apportion")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(folder, "__init__.py"), submodule_search_locations=[folder])
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    mains.append(importlib.import_module(f"{name}.cli").main)
times = [[[] for _ in argvs] for _ in roots]
for _ in range(rounds):
    for n, argv in enumerate(argvs):
        for call in range(100):  # 100 calls a side; the side that goes first swaps each call
            for side in (call % 2, 1 - call % 2):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = mains[side](argv)
                    times[side][n].append((time.perf_counter() - start) * 1e6)
                if code != 0:
                    sys.exit(f"exit code {code} from {argv} in {roots[side]}")
print(json.dumps(times))
"""
ROUNDS = 10


#: The ``calls`` report's argvs by name, run in the folder its inputs are written to.
CALLS = {
    "k = 6 table": ["k6.csv", "--seats", "100"],
    "k = 6 JSON": ["k6.csv", "--seats", "100", "--format", "json"],
    "--compare": ["k6.csv", "--seats", "100", "--compare"],
    "k = 20 --compare JSON, N = 598": ["k20.csv", "--seats", "598", "--compare", "--format",
                                       "json"],
    "k = 20 --trace table, N = 598": ["k20.csv", "--seats", "598", "--method", "dhondt",
                                      "--trace"],
    "--suite equivalence --trials 10": ["--suite", "equivalence", "--trials", "10"],
}


def calls(parent, inputs):
    write_csv(f"{inputs}/k6.csv", (48_210, 31_977, 9_504, 6_118, 2_730, 1_461))
    write_csv(f"{inputs}/k20.csv", [1_000 + 7_919 * i * i for i in range(20)])
    job = json.dumps([[parent, str(HEAD)], list(CALLS.values()), ROUNDS])
    old, new = json.loads(subprocess.run([sys.executable, "-c", WORKER, job], cwd=inputs,
                                         stdout=subprocess.PIPE, check=True).stdout)
    lines = [f"### Median us per in-process `cli.main` call ({ROUNDS * 100} calls a side)", "",
             "| call | parent | this commit | ratio |", "|---|---|---|---|"]
    for name, before, after in zip(CALLS, old, new):
        before, after = statistics.median(before), statistics.median(after)
        lines.append(f"| `{name}` | {before:.0f} | {after:.0f} | {after / before:.2f} |")
    return "\n".join(lines)


STARTUP = """
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import apportion.cli
elapsed = time.perf_counter() - start
loaded = [m for m in set(sys.modules) - before if m.split(".")[0] in ("apportion", "json")]
print(elapsed, *sorted(loaded))
"""
PAIRS = 25


def startup(parent, inputs):
    """The time of ``import apportion.cli`` in fresh interpreters, PAIRS a tree,
    and the ``apportion`` and ``json`` modules it loads."""
    roots, times, modules = (parent, HEAD), ([], []), [[], []]
    for root in roots:  # a first import writes the bytecode cache, where that is on
        run(root, ["-c", STARTUP])
    for pair in range(PAIRS):
        for side in (pair % 2, 1 - pair % 2):  # the side that goes first swaps each pair
            elapsed, *modules[side] = run(roots[side], ["-c", STARTUP]).decode().split()
            times[side].append(float(elapsed) * 1e3)
    lines = [f"### `import apportion.cli` in a fresh interpreter ({PAIRS} alternating pairs)",
             "", "| tree | median ms | quartiles ms | modules loaded |", "|---|---|---|---|"]
    for label, ms, loaded in zip(("parent", "this commit"), times, modules):
        q1, q2, q3 = statistics.quantiles(ms, n=4)
        lines.append(f"| {label} | {q2:.1f} | {q1:.1f}-{q3:.1f} | {' '.join(loaded)} |")
    return "\n".join(lines)


def code_lines(source):
    """Lines holding a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def lines(parent, inputs):
    files = [sorted(Path(root, "src/apportion").glob("*.py")) for root in (parent, HEAD)]
    old, new = ([path.read_bytes().count(b"\n") for path in paths] for paths in files)
    code = [sum(code_lines(path.read_text()) for path in paths) for paths in files]
    width = len(str(sum(path.stat().st_size for path in files[1])))  # as GNU wc pads
    if files[0]:
        counts = [f"{a} at HEAD^, {b} at HEAD, change {b - a}" for a, b in (
            (sum(old), sum(new)), code)]
    else:  # no parent files would read as 0 lines at HEAD^
        counts = [f"{sum(new)} at HEAD", f"{code[1]} at HEAD"]
    return "\n".join([
        "```",
        *(f"{n:>{width}} {path.relative_to(HEAD)}" for n, path in zip(new, files[1])),
        f"{sum(new):>{width}} total",
        f"src/ total: {counts[0]} (target 2740)",
        f"src/ code lines (no blank lines, comments or docstrings): {counts[1]}",
        *([] if files[0] else
          [f"parent checkout unavailable: no src/apportion/*.py under {parent}"]),
        "```",
    ])


REPORTS = {"tracer": tracer, "suites": suites, "engines": engines, "traced": traced,
           "two-stage": two_stage, "calls": calls, "startup": startup, "lines": lines}


def main(argv):
    if not argv or not set(argv[1:]) <= set(REPORTS):
        sys.exit(__doc__)
    parent = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as inputs:
        for i, name in enumerate(argv[1:] or REPORTS):
            print(("\n" if i else "") + REPORTS[name](parent, inputs), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
