#!/usr/bin/env python3
"""Benchmark for the apportion package, driven through its public entry points.

Run from the root of a source checkout:

    python3 bench/run.py --workload fixed-house --seed 0 --seconds 15 --trace 0

Each run imports ``apportion`` from ``./src`` and calls
``apportion.cli.main`` in-process on generated CSVs (one client, closed
loop: the next call starts when the previous one returns).  It repeats
the workload's pass, a fixed list of calls built from ``--seed`` (see
``workloads.py``), until ``--seconds`` of call time are measured, checks
every output outside the timed region, and prints a readable report
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are reported in *reference milliseconds/seconds*: each measured
time is scaled by how fast the machine was at that moment, read from a
fixed slice of pure-Python work (``speed_probe``) run next to every call.
On a small shared host a core's speed drifts by 20-45 % within a minute;
the drift moves the probe and the calls alike (their ratio stays within a
few percent), so the scaled figures compare across runs where raw ones do
not.  Scaled times are those of a machine on which one probe takes exactly
``probe.REF_S`` (1 ms); the report also prints the raw values.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs, records spans around the
calls between the package's modules (``tracer.py``), writes them to
``.bench_out/`` and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from probe import REF_S, speed_probe

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
# Generated CSVs go to a fresh directory per run under the root.  Reports
# echo the input path, so digests replace that directory by this name.
WORK_NAME = ".bench_tmp"
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
# Run in a fresh interpreter: the import is timed first, then the probe runs
# in the same process, on the same core, so the import time can be scaled.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "start = time.perf_counter()\n"
    "import apportion.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, {bench!r})\n"
    "from probe import speed_probe\n"
    "print(elapsed, sorted(speed_probe() for _ in range(5))[2])\n"
)
PROBE_WINDOW = 15  # calls whose probes set the speed at one call
# Beyond this much wall time a run stops starting passes, whatever --seconds says.
WALL_LIMIT_S = 120
SUITE_JOBS_TRIALS = 2000


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import apportion from ./src; never from an installed copy."""
    package = ROOT / "src" / "apportion"
    if not (package / "__init__.py").is_file():
        fail(f"no apportion sources under {package}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import apportion
    import apportion.cli

    if Path(apportion.__file__).resolve().parent != package.resolve():
        fail(f"imported apportion from {apportion.__file__}, not {package}")
    return apportion


def speed_factors(probes):
    """Per item, REF_S over the median probe of the PROBE_WINDOW items around it.

    The window follows drift over a second or so without taking on the
    jitter of a single probe.
    """
    half = PROBE_WINDOW // 2
    return [REF_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]


def normalise(times, probes):
    """Each time scaled to the speed at which the probe takes REF_S."""
    return [t * f for t, f in zip(times, speed_factors(probes))]


def measure_setup():
    """Seconds a fresh interpreter takes to import apportion.cli, raw and scaled.

    The first child only warms the bytecode cache and is not counted.
    """
    code = SETUP_CODE.format(bench=str(BENCH_DIR))
    samples, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"importing apportion.cli failed:\n{proc.stderr}")
        if i:
            elapsed, probe = map(float, proc.stdout.split())
            samples.append(elapsed)
            scaled.append(elapsed * REF_S / probe)
    return samples, scaled


def timed_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Checker:
    """Checks each call's output once per distinct output.

    The first pass runs every call's checker; later passes must repeat the
    first pass byte for byte.  Under the default seed each output must
    also match the committed golden digest.
    """

    def __init__(self, calls, goldens, workdir: str):
        self.calls = calls
        self.goldens = goldens
        self.workdir = workdir
        self.digests = [None] * len(calls)
        self.outcomes = [None] * len(calls)
        self.sizes = [0] * len(calls)
        self.failures = []

    def check(self, index, code, out, err) -> bool:
        call = self.calls[index]
        digest = hashlib.sha256(out.replace(self.workdir, WORK_NAME).encode()).hexdigest()
        problem = None
        self.sizes[index] = len(out.encode())
        if code != 0:
            problem = f"exit {code}: {err.strip()[-300:]}"
        elif self.digests[index] is not None:
            if digest != self.digests[index]:
                problem = "output differs from the first pass"
        else:
            if self.goldens is not None and self.goldens.get(call.label) != digest:
                problem = "output differs from the golden digest"
            try:
                self.outcomes[index] = call.check(out)
            except Exception as exc:  # a malformed output can fail in any way
                problem = f"check failed: {type(exc).__name__}: {exc}"
            if problem is None:
                self.digests[index] = digest
        if problem is not None:
            self.failures.append(f"{call.label}: {problem}")
        return problem is None


def run_pass(cli, calls, checker, recorder=None):
    """One pass; returns per-call latencies and probe times (s), and failures."""
    latencies, probes = [], []
    failed = 0
    for index, call in enumerate(calls):
        probes.append(speed_probe())
        if recorder is not None:
            recorder.call = index
            recorder.recording = True
        elapsed, code, out, err = timed_call(cli, call.argv)
        if recorder is not None:
            recorder.recording = False
        latencies.append(elapsed)
        if not checker.check(index, code, out, err):
            failed += 1
    return latencies, probes, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pass_stats(latencies, units):
    """p50 and p95 of a pass's call latencies (ms) and its rates (1/s)."""
    cuts = statistics.quantiles([x * 1e3 for x in latencies], n=100)
    wall = sum(latencies)
    stats = {"call_ms_p50": cuts[49], "call_ms_p95": cuts[94]}
    for name, count in units.items():
        stats[name] = count / wall
    return stats


def end_to_end(cli, calls, checker, seconds):
    """Passes until ``seconds`` of call time; per-pass stats, scaled and raw."""
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        latencies, probes, bad = run_pass(cli, calls, checker)
        passes.append((latencies, probes))
        attempted += len(calls)
        failed += bad
        measured = sum(sum(p[0]) for p in passes)
        if measured >= seconds or time.perf_counter() - start > WALL_LIMIT_S:
            break
    outcomes = [o for o in checker.outcomes if o]
    units = {"seats_per_s": sum(o.seats for o in outcomes),
             "trials_per_s": sum(o.trials for o in outcomes),
             "topups_per_s": sum(o.topups for o in outcomes)}
    scaled = [pass_stats(normalise(lat, probes), units) for lat, probes in passes]
    raw = [pass_stats(lat, units) for lat, _ in passes]
    return scaled, raw, [sum(lat) for lat, _ in passes], attempted, failed


def print_report(workload, seed, n_calls, scaled, raw, walls, setup, rss,
                 attempted, failed):
    beyond = n_calls - int(0.95 * (n_calls + 1))
    print(f"workload {workload}  seed {seed}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}")
    print(f"{len(walls)} passes of {n_calls} calls ({beyond} beyond p95 in a pass), "
          f"raw call time per pass {', '.join(f'{w:.2f}' for w in walls)} s")
    print("metric: median [q1, q3] over passes in reference units; raw median")
    rows = [("setup_s", "s", setup[1], setup[0])]
    for name, unit in (("call_ms_p50", "ms"), ("call_ms_p95", "ms"),
                       ("seats_per_s", "1/s"), ("trials_per_s", "1/s"),
                       ("topups_per_s", "1/s")):
        if scaled[0][name]:
            rows.append((name, unit, [p[name] for p in scaled], [p[name] for p in raw]))
    for name, unit, values, raw_values in rows:
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<14} {q2:14.4f} {unit:<4} [{q1:.4f}, {q3:.4f}]  "
              f"raw {statistics.median(raw_values):.4f}")
    print(f"  {'peak_rss_mb':<14} {rss:14.4f} MB")
    print(f"  {'fail_ratio':<14} {failed / attempted:14.4f}      "
          f"{failed} of {attempted} calls failed")


def trace_run(apportion, calls, checker, seconds, workload, seed):
    cli = apportion.cli
    rec = tracer.Tracer()
    tracer.install(rec, apportion)
    untraced, traced, signatures = [], [], []
    # A first, untimed pass runs the output checks and warms lazy state,
    # so that it weighs on neither side of the overhead ratio.
    attempted = len(calls)
    failed = run_pass(cli, calls, checker)[2]
    measured = 0.0
    start = time.perf_counter()
    try:
        while True:
            latencies, probes, bad = run_pass(cli, calls, checker)
            untraced.append(normalise(latencies, probes))
            first = len(rec.spans)
            t_latencies, t_probes, t_bad = run_pass(cli, calls, checker, rec)
            traced.append(normalise(t_latencies, t_probes))
            factors = speed_factors(t_probes)
            for span in rec.spans[first:]:
                span.scale = factors[span.call]
            signatures.append(tracer.signature(rec.spans[first:]))
            attempted += 2 * len(calls)
            failed += bad + t_bad
            measured += sum(latencies) + sum(t_latencies)
            if len(traced) >= 2 and (measured >= seconds
                                     or time.perf_counter() - start > WALL_LIMIT_S):
                break
    finally:
        rec.restore()
    repeat_ok = all(sig == signatures[0] for sig in signatures)
    if not repeat_ok:
        print("bench: span counts differ between traced passes", file=sys.stderr)
    # Calls at or above p95, from the per-call median of the untraced passes.
    # Pass times here are scaled, like the end-to-end ones.
    per_call = [statistics.median(xs) for xs in zip(*untraced)]
    p95 = statistics.quantiles(per_call, n=100)[94]
    tail = {i for i, x in enumerate(per_call) if x >= p95}
    metrics = tracer.layer_metrics(rec.spans, len(traced), tail)
    metrics["trace.overhead_ratio"] = (statistics.median(map(sum, traced))
                                       / statistics.median(map(sum, untraced)))
    metrics["pass.calls"] = len(calls)
    metrics["pass.tie_events"] = sum(o.ties for o in checker.outcomes if o)
    metrics["pass.output_bytes"] = sum(checker.sizes)
    jobs = {"oracle.equivalence_suite.jobs1_s": 0.0,
            "oracle.equivalence_suite.jobs2_s": 0.0,
            "oracle.equivalence_suite.jobs2_speedup": 0.0}
    if workload == "suite":
        jobs, ok = suite_jobs(cli, seed)
        attempted += 2
        failed += 0 if ok else 2
    metrics.update(jobs)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    rec.dump(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return metrics, repeat_ok, attempted, failed, len(traced)


def suite_jobs(cli, seed):
    """Wall time of one 2,000-trial suite serially and with --jobs 2.

    Report-only: on a small shared machine the parallel time swings too
    much to gate on.  Both runs must print the same bytes.
    """
    argv = ["--suite", "equivalence", "--trials", str(SUITE_JOBS_TRIALS),
            "--master-seed", str(seed), "--format", "json"]
    t1, c1, out1, _ = timed_call(cli, argv)
    t2, c2, out2, _ = timed_call(cli, argv + ["--jobs", "2"])
    report = json.loads(out1)["suite_report"] if c1 == 0 else None
    ok = (c1 == c2 == 0 and out1 == out2 and not report["disagreements"]
          and report["stats"]["hare_quota_ok"] == SUITE_JOBS_TRIALS)
    return {"oracle.equivalence_suite.jobs1_s": t1,
            "oracle.equivalence_suite.jobs2_s": t2,
            "oracle.equivalence_suite.jobs2_speedup": t1 / t2}, ok


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fixed-house", "suite", "two-stage", "traced"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="record this run's output digests as the goldens "
                             "(default seed only)")
    return parser.parse_args(argv)


def run(args):
    apportion = load_package()
    import workloads

    goldens_all = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    check_goldens = args.seed == DEFAULT_SEED and not args.write_goldens
    if check_goldens and args.workload not in goldens_all:
        fail(f"no golden digests for {args.workload} in {GOLDENS}")
    setup = None if args.trace else measure_setup()
    workdir = str(Path(tempfile.mkdtemp(prefix=WORK_NAME + "-", dir=".")))
    try:
        calls = workloads.BUILDERS[args.workload](args.seed, Path(workdir))
        labels = [c.label for c in calls]
        if len(set(labels)) != len(labels):
            fail("duplicate call labels")
        goldens = goldens_all.get(args.workload) if check_goldens else None
        checker = Checker(calls, goldens, workdir)
        # Keep the benchmark's own long-lived objects out of the collector's
        # full scans, as they would be in a fresh CLI process.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, repeat_ok, attempted, failed, n_traced = trace_run(
                apportion, calls, checker, args.seconds, args.workload, args.seed)
            correct = failed == 0 and repeat_ok
            print(f"workload {args.workload}  seed {args.seed}  traced passes {n_traced} "
                  f"of {len(calls)} calls  python {sys.version.split()[0]}  "
                  f"nproc {os.cpu_count()}")
            result_metrics = {}
            for name, unit, _ in tracer.metric_specs():
                print(f"  {name:<48} {metrics[name]:14.4f} {unit}")
                result_metrics[name] = {"value": metrics[name], "unit": unit}
        else:
            scaled, raw, walls, attempted, failed = end_to_end(
                apportion.cli, calls, checker, args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            correct = failed == 0
            print_report(args.workload, args.seed, len(calls), scaled, raw, walls, setup,
                         rss, attempted, failed)
            result_metrics = {"setup_s": {"value": statistics.median(setup[1]), "unit": "s"}}
            for name, unit in (("call_ms_p50", "ms"), ("call_ms_p95", "ms"),
                               ("seats_per_s", "1/s")):
                value = statistics.median(p[name] for p in scaled)
                result_metrics[name] = {"value": value, "unit": unit}
            result_metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        for line in checker.failures[:20]:
            print(f"bench: FAIL {line}", file=sys.stderr)
        if args.write_goldens and failed == 0:
            goldens_all[args.workload] = dict(zip(labels, checker.digests))
            GOLDENS.write_text(json.dumps(goldens_all, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))


if __name__ == "__main__":
    run(parse_args())
