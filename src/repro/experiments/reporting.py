"""Plain-text reporting for experiment harnesses.

Figures are regenerated as ASCII series tables (this is a library, not a
plotting package): one row per sampled tick, one column per scheme, plus
summary tables of the headline comparisons the paper quotes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.engine.metrics import RegistrySnapshot
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent

#: Event kinds that appear on a robustness timeline, in display order.
TIMELINE_KINDS = ("shed", "degrade", "death", "fanout_cut")


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a left-padded ASCII table."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            cols[i].append(str(cell))
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    header_line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def improvement_pct(winner: float, loser: float) -> float:
    """How many percent more ``winner`` produced than ``loser``."""
    if loser <= 0:
        return float("inf") if winner > 0 else 0.0
    return 100.0 * (winner - loser) / loser


def throughput_series(
    runs: Mapping[str, RunStats], ticks: Sequence[int]
) -> list[list[object]]:
    """Rows of cumulative outputs per scheme at each requested tick.

    Dead runs hold their last value (their line goes flat, as in the
    paper's figures).
    """
    rows: list[list[object]] = []
    for t in ticks:
        row: list[object] = [t]
        for stats in runs.values():
            row.append(stats.outputs_at(t))
        rows.append(row)
    return rows


def format_throughput_figure(
    title: str, runs: Mapping[str, RunStats], *, n_points: int = 12
) -> str:
    """The standard cumulative-throughput 'figure' as an ASCII table."""
    horizon = max((s.samples[-1].tick for s in runs.values() if s.samples), default=0)
    if horizon == 0:
        return f"{title}\n(no samples)"
    step = max(horizon // max(n_points - 1, 1), 1)
    ticks = list(range(0, horizon + 1, step))
    if ticks[-1] != horizon:
        ticks.append(horizon)
    headers = ["tick"] + [
        name + (" (died)" if not stats.completed else "") for name, stats in runs.items()
    ]
    body = format_table(headers, throughput_series(runs, ticks))
    death_notes = [
        f"  {name}: out of memory at tick {stats.died_at}"
        for name, stats in runs.items()
        if not stats.completed
    ]
    parts = [title, body]
    if death_notes:
        parts.append("\n".join(death_notes))
    return "\n".join(parts)


def format_event_timeline(
    title: str,
    events_by_scheme: Mapping[str, Sequence[EngineEvent]],
    *,
    max_lines: int = 20,
) -> str:
    """The robustness 'figure': per-scheme shed/degrade/death/cut timeline.

    One count row per scheme, followed by each scheme's first
    ``max_lines`` timeline events as one-liners (backlog shed, indexes
    degraded to scan, death, requests cut at the fanout cap) so a report
    shows *when* a scheme started to fall apart, not just whether it did.
    """
    rows = []
    for name, events in events_by_scheme.items():
        counts = {k: 0 for k in TIMELINE_KINDS}
        for e in events:
            if e.kind in counts:
                counts[e.kind] += 1
        rows.append([name] + [counts[k] for k in TIMELINE_KINDS])
    parts = [title, format_table(["scheme", *TIMELINE_KINDS], rows)]
    for name, events in events_by_scheme.items():
        timeline = [e for e in events if e.kind in TIMELINE_KINDS]
        if not timeline:
            continue
        shown = timeline[:max_lines]
        lines = [f"  {e}" for e in shown]
        if len(timeline) > len(shown):
            lines.append(f"  ... {len(timeline) - len(shown)} more")
        parts.append(f"{name}:\n" + "\n".join(lines))
    return "\n".join(parts)


def format_cost_profile(title: str, snapshot: RegistrySnapshot) -> str:
    """The live Table-2: one cost-unit row per attribution series.

    One row per ``(component, stream, index_kind, phase)`` series, sorted
    by cost descending.  The TOTAL row is the registry's *chronological*
    grand total, which equals the executor's ``meter.total_spent``
    bit-for-bit (per-row sums regroup the same charges, so they agree with
    it up to float associativity — well under one displayed decimal).
    """
    by_key = snapshot.cost_by("component", "stream", "index_kind", "phase")
    ranked = sorted(by_key.items(), key=lambda kv: (-kv[1], kv[0]))
    total = snapshot.cost_total
    rows: list[list[object]] = []
    for (component, stream, index_kind, phase), cost in ranked:
        share = 100.0 * cost / total if total > 0 else 0.0
        rows.append([component, stream, index_kind, phase, f"{cost:,.1f}", f"{share:.1f}%"])
    rows.append(["TOTAL", "", "", "", f"{total:,.1f}", "100.0%" if total > 0 else "-"])
    headers = ["component", "stream", "index_kind", "phase", "cost_units", "share"]
    return f"{title}\n" + format_table(headers, rows)


def format_summary(
    title: str, comparisons: Sequence[tuple[str, float, str, float]]
) -> str:
    """Headline comparison lines: (winner, value, loser, value) tuples."""
    lines = [title]
    for winner, wv, loser, lv in comparisons:
        pct = improvement_pct(wv, lv)
        lines.append(f"  {winner} produced {wv:,.0f} vs {loser} {lv:,.0f}  ({pct:+.0f}%)")
    return "\n".join(lines)
