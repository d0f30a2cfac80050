"""Span recorder for the traced run, and the per-layer metrics built from it.

Spans are recorded from the benchmark's side only: :func:`install` swaps
the package's public functions, in the namespace of the module that calls
them, for wrappers that time each call.  ``src/`` is never edited, and
:meth:`Tracer.restore` puts every original back.

A span is ``(name, caller, start, end, parent, call, counts)``, plus the
machine-speed factor of its call (see ``probe.py``) by which the per-layer
times are scaled.  ``counts``
are read from the wrapped function's return value (seats, trace steps,
top-ups, bytes, ...), never from a clock.  A span's self time is its
duration minus the durations of its direct children; calls are serial, so
children never overlap.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

# The three engines that loop once per seat in a fixed-house run.
PER_SEAT_ENGINES = (
    "methods.sequential_hare",
    "methods.highest_averages",
    "methods.multiplicative",
)


@dataclass
class Span:
    name: str
    caller: str
    start: int  # ns, perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at the root
    call: int  # index of the benchmark call, within its pass
    counts: dict
    scale: float = 1.0  # machine-speed factor of the call, set after its pass


class Tracer:
    """Keeps spans in memory while ``recording`` is set."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.recording = False
        self.call = -1
        self._open: list[tuple[int, str]] = []
        self._patches = []

    def wrap(self, owner, attr, caller, name, count):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``count`` maps the return value to a dict of counts.  ``caller``
        None takes the module of the enclosing span.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            who = caller
            if who is None:
                who = tracer._open[-1][1].split(".")[0] if tracer._open else "-"
            index = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append((index, label))
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._open.pop()
                counts = count(result) if result is not None else {}
                tracer.spans[index] = Span(label, who, start, end, parent,
                                           tracer.call, counts)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.caller, s.start, s.end, s.parent,
                                         s.call, s.counts]) + "\n")


def _allocation_counts(allocation):
    return {"seats": allocation.house_size, "k": len(allocation.party_ids),
            "ties": len(allocation.tie_events)}


def _engine_counts(result):
    allocation, detail = result
    counts = _allocation_counts(allocation)
    counts["steps"] = len(detail.steps) if hasattr(detail, "steps") else len(detail)
    return counts


def _seeded_counts(run):
    return {"topups": run.stop_iteration, "awards": len(run.awards),
            "ties": len(run.tie_events), "k": len(run.party_ids)}


def _multiplicative_name(args, kwargs):
    engine = kwargs.get("engine", "threshold")
    return "methods.multiplicative" if engine == "threshold" else "methods.multiplicative_sweep"


def _seeded_divisor_name(args, kwargs):
    stop = args[3] if len(args) > 3 else kwargs.get("stop", "residual")
    return f"seeded.seeded_divisor_{stop}"


def install(tracer: Tracer, apportion) -> None:
    """Wrap the public calls between the package's modules."""
    cli, oracle = apportion.cli, apportion.oracle
    nothing = lambda result: {}  # noqa: E731
    text_bytes = lambda text: {"bytes": len(text)}  # noqa: E731  (the JSON is ASCII)
    tracer.wrap(cli, "main", "bench", "cli.main", nothing)
    tracer.wrap(cli, "run", "cli", "cli.run", text_bytes)
    tracer.wrap(cli, "parse_votes", "cli", "cli.parse_votes",
                lambda r: {"k": r[0].party_count})
    tracer.wrap(cli, "compute_quotas", "cli", "methods.compute_quotas",
                lambda r: {"k": len(r.party_ids)})
    for module, caller in ((cli, "cli"), (oracle, "oracle")):
        tracer.wrap(module, "hare_niemeyer", caller, "methods.hare_niemeyer",
                    _allocation_counts)
        tracer.wrap(module, "sequential_hare", caller, "methods.sequential_hare",
                    _engine_counts)
        tracer.wrap(module, "highest_averages", caller, "methods.highest_averages",
                    _engine_counts)
        tracer.wrap(module, "multiplicative", caller, _multiplicative_name,
                    _engine_counts)
    tracer.wrap(cli, "seeded_sequential_hare", "cli", "seeded.seeded_sequential_hare",
                _seeded_counts)
    tracer.wrap(cli, "seeded_divisor", "cli", _seeded_divisor_name, _seeded_counts)
    tracer.wrap(cli, "equivalence_suite", "cli", "oracle.equivalence_suite",
                lambda r: {"trials": r.trials_run})
    tracer.wrap(apportion.serialize, "dumps", "cli", "serialize.dumps", text_bytes)
    tracer.wrap(oracle.InstanceSpace, "trial_instance", "oracle", "oracle.trial_instance",
                lambda r: {"seats": r.house_size, "k": r.tally.party_count})
    tracer.wrap(apportion.types.TiePolicy, "ranks", None, "types.TiePolicy.ranks",
                lambda r: {"k": len(r)})


# ------------------------------------------------------------ per-layer metrics

# Per-layer metrics: (layer, statistics), in report order.
_LAYERS = [
    ("methods.sequential_hare", ("us_per_seat", "ms", "calls", "seats")),
    ("methods.highest_averages", ("us_per_seat", "ms", "calls", "seats", "trace_steps")),
    ("methods.multiplicative", ("us_per_seat", "ms", "calls", "seats")),
    ("methods.multiplicative_sweep", ("us_per_seat", "ms", "calls", "seats",
                                      "trace_steps")),
    ("methods.hare_niemeyer", ("us", "calls")),
    ("methods.compute_quotas", ("us", "calls")),
    ("cli.main", ("self_ms", "calls")),
    ("cli.run", ("self_ms", "calls")),
    ("cli.parse_votes", ("ms", "calls")),
    ("serialize.dumps", ("ms", "us_per_kb", "calls", "bytes")),
    ("seeded.seeded_sequential_hare", ("us_per_topup", "ms", "calls", "topups",
                                       "awards")),
    ("seeded.seeded_divisor_fixed", ("us_per_topup", "ms", "calls", "topups")),
    ("seeded.seeded_divisor_residual", ("us", "calls", "topups")),
    ("oracle.equivalence_suite", ("self_ms", "calls", "trials")),
    ("oracle.trial_instance", ("us", "calls")),
    ("types.TiePolicy.ranks", ("us", "calls", "calls_per_trial")),
]
_UNITS = {
    "us_per_seat": ("us/seat", "lower"), "us_per_topup": ("us/topup", "lower"),
    "us_per_kb": ("us/KiB", "lower"), "ms": ("ms", "lower"), "us": ("us", "lower"),
    "self_ms": ("ms", "lower"), "calls": ("count", "lower"), "seats": ("count", "higher"),
    "trace_steps": ("count", "higher"), "bytes": ("B", "lower"),
    "topups": ("count", "higher"), "awards": ("count", "higher"),
    "trials": ("count", "higher"), "calls_per_trial": ("count", "lower"),
}
COST_KS = (2, 6, 20)
COST_NS = (10_000, 100_000)
EXTRA = [
    ("oracle.equivalence_suite.jobs1_s", "s", "lower"),
    ("oracle.equivalence_suite.jobs2_s", "s", "lower"),
    ("oracle.equivalence_suite.jobs2_speedup", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("tail.engine_share", "ratio", "lower"),
    ("pass.calls", "count", "lower"),
    ("pass.tie_events", "count", "lower"),
    ("pass.output_bytes", "B", "lower"),
]


def metric_specs():
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = []
    for layer, stats in _LAYERS:
        for stat in stats:
            unit, better = _UNITS[stat]
            specs.append((f"{layer}.{stat}", unit, better))
    for engine in PER_SEAT_ENGINES:
        for k in COST_KS:
            for n in COST_NS:
                specs.append((f"{engine}.us_per_seat.k{k}.n{n}", "us/seat", "lower"))
    specs.extend(EXTRA)
    return specs


def self_times(spans) -> list[int]:
    """Self time in ns of every span: duration minus its children's."""
    selves = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            selves[s.parent] -= s.end - s.start
    return selves


def signature(spans):
    """What a pass did, as counts only; equal across passes of one seed."""
    return [(s.name, s.caller, s.call, sorted(s.counts.items())) for s in spans]


def layer_metrics(spans, passes: int, tail_calls: set[int]) -> dict[str, float]:
    """Per-layer metrics over ``passes`` identical traced passes.

    Times are scaled self times: ``.ms``/``.us``/``.self_ms`` are means per call,
    ``.us_per_seat`` and the like divide total self time by the summed
    count.  Counts are per pass.  ``tail_calls`` are the call indices at or
    above the untraced pass's p95, for ``tail.engine_share``.
    """
    selves = [own * s.scale for s, own in zip(spans, self_times(spans))]
    totals: dict[str, dict[str, float]] = {}
    cost: dict[tuple[str, int, int], list[float]] = {}
    tail_total = 0
    tail_engine = 0
    for s, own in zip(spans, selves):
        t = totals.setdefault(s.name, {"calls": 0, "ns": 0})
        t["calls"] += 1
        t["ns"] += own
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
        if s.name in PER_SEAT_ENGINES and s.caller == "cli" and s.counts["seats"] in COST_NS:
            entry = cost.setdefault((s.name, s.counts["k"], s.counts["seats"]), [0, 0])
            entry[0] += own
            entry[1] += s.counts["seats"]
        if s.call in tail_calls:
            if s.name == "cli.main":
                tail_total += (s.end - s.start) * s.scale
            elif s.name in PER_SEAT_ENGINES:
                tail_engine += own
    trials = totals.get("oracle.trial_instance", {}).get("calls", 0)
    out = {}
    for layer, stats in _LAYERS:
        t = totals.get(layer, {"calls": 0, "ns": 0})
        calls, ns = t["calls"], t["ns"]
        for stat in stats:
            name = f"{layer}.{stat}"
            if stat in ("ms", "self_ms"):
                out[name] = ns / calls / 1e6 if calls else 0.0
            elif stat == "us":
                out[name] = ns / calls / 1e3 if calls else 0.0
            elif stat == "us_per_seat":
                out[name] = ns / 1e3 / t["seats"] if t.get("seats") else 0.0
            elif stat == "us_per_topup":
                out[name] = ns / 1e3 / t["topups"] if t.get("topups") else 0.0
            elif stat == "us_per_kb":
                out[name] = ns / 1e3 / (t["bytes"] / 1024) if t.get("bytes") else 0.0
            elif stat == "calls_per_trial":
                out[name] = calls / trials if trials else 0.0
            elif stat == "trace_steps":
                out[name] = t.get("steps", 0) / passes
            else:  # a count, per pass
                out[name] = (calls if stat == "calls" else t.get(stat, 0)) / passes
    for engine in PER_SEAT_ENGINES:
        for k in COST_KS:
            for n in COST_NS:
                own, seats = cost.get((engine, k, n), (0, 0))
                out[f"{engine}.us_per_seat.k{k}.n{n}"] = own / 1e3 / seats if seats else 0.0
    out["tail.engine_share"] = tail_engine / tail_total if tail_total else 0.0
    return out
