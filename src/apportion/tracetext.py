"""Table text of every step trace the CLI prints: divisor tables,
multiplier searches, award logs, and a two-stage run's award log or sweep.

:mod:`cli` loads this module on the first trace it prints, so runs that
print none do not compile it; it imports only :mod:`types`.  An engine's
divisor table is written from the running cells of ``DivisorSteps.cells``,
the one walk of the table that its rows and its JSON read too, and an
engine's award log from its columns; decoded ones, tuples of rows, a row
at a time.
"""

from __future__ import annotations

from .types import AwardLog, DivisorSteps, SeatAwards, SeededRun, _fmt, _layout, _ratio


def award_fields(awards):
    """Each award's iteration, house target, party and deficit text: read
    from the columns of an engine's log, a row at a time from a decoded one."""
    if isinstance(awards, SeatAwards):
        iterations, houses, parties, nums, dens = awards.columns()
        return zip(iterations, houses, parties, map(_ratio, nums, dens))
    return ((a.iteration, a.house_target, a.party, _fmt(a.deficit)) for a in awards)


def _table_blocks(table):
    """An engine's divisor table (a :class:`DivisorSteps`) as one block per
    seat, as the row path below lays them out, from the running cells of
    :meth:`DivisorSteps.cells`.  The four rows of padded cells are kept from
    seat to seat; only the column that changed is padded again, to its
    width over the four."""
    ids, winners = table.party_ids, table.winners
    rows = [[label.ljust(7), *ids] for label in ("", "seats", "present", "next")]  # 7: "present"
    blocks, changed = [], range(len(ids))
    for i, seats, presents, nexts in table.cells(_ratio, "-", str):
        for j in changed:
            column = ids[j], seats[j], presents[j], nexts[j]
            width = max(map(len, column))
            for row, text in zip(rows, column):
                row[j + 1] = text.ljust(width)
        changed = (winners[i],)
        blocks.append(f"seat {i + 1} -> {ids[winners[i]]}")
        blocks += ["  ".join(row).rstrip() for row in rows]
    return blocks


def trace_text(trace) -> str:
    """The table text of a trace, or of a two-stage run's award log and sweep."""
    if isinstance(trace, SeededRun):
        lines = ["award log:"] if trace.awards else []
        lines += [f"  top-up {j} (house {house}) -> {party} (deficit {deficit})"
                  for j, house, party, deficit in award_fields(trace.awards)]
        lines += ["multiplier sweep:"] if trace.sweep else []
        lines += [f"  M={_fmt(step.multiplier)}  top-up=({','.join(map(str, step.extra_seats))})"
                  f"  total={step.total_extra}" for step in trace.sweep]
        return "\n".join(lines)
    if isinstance(trace, AwardLog):
        lines = ["award log (largest deficit first):"]
        lines += [f"  seat {j}: -> {party} (deficit {deficit})"
                  for j, _, party, deficit in award_fields(trace.awards)]
        return "\n".join(lines)
    if trace.form == "divisor" and isinstance(trace.steps, DivisorSteps):
        return "\n".join([f"divisor table ({trace.method}):", *_table_blocks(trace.steps)])
    if trace.form == "divisor":  # decoded rows: a block per row
        blocks = [f"divisor table ({trace.method}):"]
        header = ["", *trace.party_ids]
        for step in trace.steps:
            rows = [[label, *map(_fmt, values)] for label, values in (
                ("seats", step.seats_before), ("present", step.present_quota),
                ("next", step.next_quota))]
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
