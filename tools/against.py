"""Run this tree and another checkout on the same inputs; tabulate where they differ.

Usage: python3 tools/against.py PARENT_ROOT [REPORT ...]

PARENT_ROOT is another checkout, usually the parent commit (``git worktree
add <dir> HEAD^``).  Each report prints one markdown table; all run when none
is named.  ``tracer`` lists the count metrics (calls, seats, steps, bytes) of
one traced bench pass that differ; ``suites``, ``engines``, ``traced`` and
``two-stage`` compare the sha256 of each suite's JSON and table, of 2,000
seeded draws run by the untraced table, sweep and jump, and of traced and
two-stage CLI output (two-stage as JSON and table, each with and without
``--trace``) at k = 50 with varied and with equal votes; ``rows`` compares
the sha256 of the rows of 200 seeded traced divisor tables, fixed-house
award logs and two-stage award logs (k <= 50, N <= 5,000), read whole, at
both ends and in slices of step 2 and -3; ``calls`` gives the median
us per in-process ``cli.main`` call, ``startup`` the median and quartiles of the
time of ``import apportion.cli`` in fresh interpreters, alternating the trees,
with the package and ``json`` modules that import loads, and ``lines`` the
lines and code lines of each module in src/apportion in both trees.

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
    print(kind, engine, digest.hexdigest()[:16], sep="\t")
"""


def digest_table(parent, title, columns, args):
    """The table of the tab-separated ``labels..., digest`` lines that
    ``python args`` prints in both trees.  A script that prints no line, or
    not as many in both, fails the report rather than read as equal."""
    old, new = ([line.split("\t") for line in run(root, args).decode().splitlines()]
                for root in (parent, HEAD))
    if not old or len(old) != len(new):
        sys.exit(f"{title}: {len(old)} digests in the parent, {len(new)} in this commit")
    return table(title, columns, [(line[:-1], line[-1], other[-1])
                                  for line, other in zip(old, new)])


def engines(parent, inputs):
    return digest_table(parent, "Untraced divisor engines sha256 against the parent commit",
                        ("votes", "engine"), ["-c", ENGINES])


ROWS = """
import hashlib, random, sys
from apportion import (DHONDT, SAINTE_LAGUE, SeedDistribution, TiePolicy, VoteTally, dumps,
                       highest_averages, seeded_sequential_hare, sequential_hare)
rng = random.Random(19)
digests = {}
for trial in range(int(sys.argv[1])):
    kind = ("wide", "tie-prone")[trial % 2]
    k = rng.randint(1, 50)
    if kind == "wide":
        votes = [rng.randint(0, 10**12) for _ in range(k)]
    else:  # zeros, equal votes and small multiples of one unit
        unit = rng.choice((1, 7, 1_000, 10**9))
        votes = [unit * rng.randint(0, 6) for _ in range(k)]
    votes[rng.randrange(k)] += 1  # some party has votes
    tie = TiePolicy("random", rng.getrandbits(64)) if rng.random() < 0.75 else TiePolicy()
    tally = VoteTally(tuple(f"P{i}" for i in range(k)), tuple(votes))
    n = rng.randint(0, 5_000)
    districts = tuple(rng.randint(0, 9) if v else 0 for v in votes)  # none without votes
    seed = SeedDistribution(tally.party_ids, districts, fixed_extra=rng.randint(0, 2_000))
    logs = {
        "divisor table": highest_averages(tally, n, rng.choice((DHONDT, SAINTE_LAGUE)),
                                          tie)[1].steps,
        "award log": sequential_hare(tally, n, tie)[1],
        "two-stage award log": seeded_sequential_hare(tally, seed, tie).awards,
    }
    for name, rows in logs.items():
        ends = (rows[0], rows[-1]) if rows else ()
        for part, value in (("rows", tuple(rows)), ("ends", ends), ("step 2", rows[::2]),
                            ("step -3", rows[::-3])):
            digests.setdefault((name, part), hashlib.sha256()).update(dumps(value).encode())
for (name, part), digest in sorted(digests.items()):
    print(name, part, digest.hexdigest()[:16], sep="\t")
"""
ROW_TRIALS = 200


def rows(parent, inputs):
    """The sha256 of the rows that the engines' divisor tables and award logs
    build, in a pass, at both ends and in two slices: the row API, which no
    CLI call reads whole."""
    title = f"Trace rows sha256 against the parent commit ({ROW_TRIALS} draws)"
    return digest_table(parent, title, ("trace", "rows"), ["-c", ROWS, str(ROW_TRIALS)])


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


def overhang(votes, target):
    """Near-proportional districts, and an overhang for the largest party
    that keeps the residual stop about ``target`` top-ups away."""
    total = sum(votes)
    big = max(range(len(votes)), key=votes.__getitem__)
    districts = [target * v // total for v in votes]
    others = sum(districts) - districts[big]
    districts[big] = ((target + others) * votes[big] + total) // (total - votes[big]) + 1
    return districts


def two_stage(parent, inputs):
    folder, sets = f"{inputs}/two-stage-inputs", vote_sets(17, 10_000)
    for name, votes in sets.items():
        write_csv(f"{folder}/{name}.csv", votes, overhang(votes, 20_000))
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
    "k = 20 --trace table, N = 2000": ["k20.csv", "--seats", "2000", "--method", "dhondt",
                                       "--trace"],
    "k = 20 --trace JSON, N = 2000": ["k20.csv", "--seats", "2000", "--method", "dhondt",
                                      "--trace", "--format", "json"],
    "--suite equivalence --trials 10": ["--suite", "equivalence", "--trials", "10"],
    "k = 12 two-stage JSON, ~10^4 top-ups": ["k12-two-stage.csv", "--format", "json"],
    # 200 equal votes tie at both of their levels: 398 events listing 40,596 names,
    # through the jump's tie groups and the award loop's tie branch
    "k = 200 equal votes, N = 400": ["k200-equal.csv", "--seats", "400", "--method",
                                     "dhondt"],
    "k = 200 equal votes --trace sequential Hare, N = 400": [
        "k200-equal.csv", "--seats", "400", "--method", "hare", "--form", "sequential",
        "--trace"],
}


def calls(parent, inputs):
    write_csv(f"{inputs}/k6.csv", (48_210, 31_977, 9_504, 6_118, 2_730, 1_461))
    write_csv(f"{inputs}/k20.csv", [1_000 + 7_919 * i * i for i in range(20)])
    votes = [10_000 + 81_799 * i for i in range(12)]
    write_csv(f"{inputs}/k12-two-stage.csv", votes, overhang(votes, 10_000))
    write_csv(f"{inputs}/k200-equal.csv", [7] * 200)
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
    """Lines and code lines of each module in src/apportion in both trees (a
    module that one tree lacks reads 0 there), their totals and the change."""
    trees = [Path(root, "src/apportion") for root in (parent, HEAD)]
    labels = ["HEAD^", "HEAD"]
    if not any(trees[0].glob("*.py")):  # no parent files would read as 0 lines at HEAD^
        del trees[0], labels[0]
    counts = {}  # per file: its lines in each tree, then its code lines in each tree
    for name in sorted({path.name for tree in trees for path in tree.glob("*.py")}):
        texts = [(tree / name).read_text() if (tree / name).exists() else "" for tree in trees]
        counts[f"src/apportion/{name}"] = ([text.count("\n") for text in texts]
                                           + [code_lines(text) for text in texts])
    totals = [sum(column) for column in zip(*counts.values())]
    columns = [f"{kind} {label}" for kind in ("lines", "code") for label in labels]
    width = max(map(len, columns))
    if len(trees) == 2:
        summary = [f"{a} at HEAD^, {b} at HEAD, change {b - a}" for a, b in (
            totals[:2], totals[2:])]
    else:
        summary = [f"{n} at HEAD" for n in totals]
    return "\n".join([
        "```",
        "  ".join(f"{column:>{width}}" for column in columns),
        *("  ".join(f"{n:>{width}}" for n in row) + f"  {path}"
          for path, row in [*counts.items(), ("total", totals)]),
        f"src/ total: {summary[0]} (target 2740)",
        f"src/ code lines (no blank lines, comments or docstrings): {summary[1]}",
        *([] if len(trees) == 2 else
          [f"parent checkout unavailable: no src/apportion/*.py under {parent}"]),
        "```",
    ])


REPORTS = {"tracer": tracer, "suites": suites, "engines": engines, "traced": traced,
           "two-stage": two_stage, "rows": rows, "calls": calls, "startup": startup,
           "lines": lines}


def main(argv):
    if not argv or not set(argv[1:]) <= set(REPORTS):
        sys.exit(__doc__)
    parent = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as inputs:
        for i, name in enumerate(argv[1:] or REPORTS):
            print(("\n" if i else "") + REPORTS[name](parent, inputs), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
