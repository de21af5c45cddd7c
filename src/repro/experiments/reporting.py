"""Plain-text reporting for experiment harnesses.

Figures are regenerated as ASCII series tables (this is a library, not a
plotting package): one row per sampled tick, one column per scheme, plus
summary tables of the headline comparisons the paper quotes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.engine.latency import LatencySnapshot
from repro.engine.metrics import RegistrySnapshot
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent

#: Event kinds that appear on a robustness timeline, in display order.
TIMELINE_KINDS = ("fault", "shed", "degrade", "death")


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


def format_fault_timeline(
    title: str,
    events_by_scheme: Mapping[str, Sequence[EngineEvent]],
    *,
    max_lines: int = 20,
) -> str:
    """The robustness 'figure': per-scheme fault/shed/degrade/death timeline.

    One count row per scheme, followed by each scheme's first
    ``max_lines`` timeline events as one-liners (faults injected, backlog
    shed, indexes degraded to scan, death) so a report shows *when* a
    scheme started to fall apart, not just whether it did.
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


def format_cost_profile(
    title: str, snapshot: RegistrySnapshot, *, top_k: int = 20
) -> str:
    """The live Table-2: top-K cost-unit rows by attribution labels.

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
    for (component, stream, index_kind, phase), cost in ranked[:top_k]:
        share = 100.0 * cost / total if total > 0 else 0.0
        rows.append([component, stream, index_kind, phase, f"{cost:,.1f}", f"{share:.1f}%"])
    hidden = len(ranked) - len(rows)
    if hidden > 0:
        rest = sum(cost for _, cost in ranked[top_k:])
        share = 100.0 * rest / total if total > 0 else 0.0
        rows.append([f"({hidden} more)", "-", "-", "-", f"{rest:,.1f}", f"{share:.1f}%"])
    rows.append(["TOTAL", "", "", "", f"{total:,.1f}", "100.0%" if total > 0 else "-"])
    headers = ["component", "stream", "index_kind", "phase", "cost_units", "share"]
    return f"{title}\n" + format_table(headers, rows)


def format_component_breakdown(
    title: str, snapshots: Mapping[str, RegistrySnapshot]
) -> str:
    """Cross-scheme cost split by component (one column per component)."""
    components: list[str] = []
    per_scheme: dict[str, dict[str, float]] = {}
    for name, snap in snapshots.items():
        split = {k[0]: v for k, v in snap.cost_by("component").items()}
        per_scheme[name] = split
        for component in split:
            if component not in components:
                components.append(component)
    components.sort()
    rows = []
    for name, split in per_scheme.items():
        rows.append(
            [name]
            + [f"{split.get(c, 0.0):,.0f}" for c in components]
            + [f"{snapshots[name].cost_total:,.0f}"]
        )
    return f"{title}\n" + format_table(["scheme", *components, "total"], rows)


def format_latency_report(title: str, latencies: Mapping[str, LatencySnapshot]) -> str:
    """Queueing latency per scheme, in ticks: exact quantiles and the mean
    over processed requests, then the requests shed and still queued."""

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.1f}"

    rows = [
        [
            name,
            snap.count,
            fmt(snap.quantile(0.50)),
            fmt(snap.quantile(0.95)),
            fmt(snap.quantile(0.99)),
            fmt(snap.mean),
            snap.shed,
            snap.unfinished,
        ]
        for name, snap in latencies.items()
    ]
    headers = ["scheme", "requests", "p50", "p95", "p99", "mean", "shed", "unfinished"]
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
