"""The JSONL export of metrics snapshots, spans, and engine events.

One export path for everything the engine records: a
:class:`~repro.engine.metrics.RegistrySnapshot`, its retained spans, an
:class:`~repro.engine.tracing.EventLog` (via ``to_records``) and a
:class:`~repro.engine.latency.LatencySnapshot` all become plain-dict
records rendered as JSONL — one self-describing JSON object per line,
sorted keys, non-finite floats as ``null``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.engine.metrics import RegistrySnapshot, SpanRecord

__all__ = [
    "event_records",
    "render_jsonl",
    "snapshot_records",
    "span_records",
    "spans_to_jsonl",
    "to_jsonl",
    "to_jsonl_lines",
    "write_jsonl",
    "write_metrics",
    "write_trace",
]


def _json_default(value: object) -> object:
    """Last-resort JSON encoding for event/attr payloads (repr beats crash)."""
    return repr(value)


def to_jsonl_lines(records: Iterable[Mapping[str, object]]) -> list[str]:
    """Render any record stream as JSONL lines (sorted keys, no NaN)."""
    out = []
    for rec in records:
        safe = {
            k: (None if isinstance(v, float) and not math.isfinite(v) else v)
            for k, v in rec.items()
        }
        out.append(json.dumps(safe, sort_keys=True, default=_json_default))
    return out


def render_jsonl(records: Iterable[Mapping[str, object]]) -> str:
    """JSONL text: one line per record, newline-terminated; ``""`` for none."""
    lines = to_jsonl_lines(records)
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_records(snapshot: RegistrySnapshot) -> list[dict[str, object]]:
    """One dict per series, plus one trailing aggregate record.

    The aggregate record carries ``cost_total`` — the chronological grand
    total that equals the executor's virtual-clock total exactly — and the
    flight-recorder drop count, so an exported file is self-contained.
    """
    records: list[dict[str, object]] = []
    for s in snapshot.series:
        rec: dict[str, object] = {
            "record": "series",
            "name": s.name,
            "kind": s.kind,
            "labels": dict(s.labels),
        }
        if s.kind == "histogram":
            rec["buckets"] = [
                ["+Inf" if math.isinf(le) else le, n] for le, n in s.buckets
            ]
            rec["total"] = s.total
            rec["count"] = s.count
        else:
            rec["value"] = s.value
        records.append(rec)
    records.append(
        {
            "record": "aggregate",
            "cost_total": snapshot.cost_total,
            "series": len(snapshot.series),
            "spans_retained": len(snapshot.spans),
            "spans_dropped": snapshot.spans_dropped,
        }
    )
    return records


def span_records(spans: Sequence[SpanRecord]) -> list[dict[str, object]]:
    """One dict per retained span (trace export)."""
    return [span.to_dict() for span in spans]


def spans_to_jsonl(spans: Sequence[SpanRecord]) -> str:
    """Render spans as JSONL — the same pipeline events export through.

    One line per retained span; the empty span list renders as the empty
    string, matching :meth:`~repro.engine.tracing.EventLog.to_jsonl`.
    """
    return render_jsonl(span_records(spans))


def event_records(events: Iterable[object]) -> list[dict[str, object]]:
    """Records for :class:`~repro.engine.tracing.EngineEvent` streams.

    Lives here (not on the event class) so events and metrics share one
    export path; :meth:`EventLog.to_records` delegates to the same shape.
    """
    out: list[dict[str, object]] = []
    for e in events:
        out.append(
            {
                "record": "event",
                "tick": getattr(e, "tick", None),
                "kind": getattr(e, "kind", None),
                "stream": getattr(e, "stream", None),
                "detail": dict(getattr(e, "detail", {})),
            }
        )
    return out


def to_jsonl(snapshot: RegistrySnapshot) -> str:
    """The snapshot as JSONL (one series per line + aggregate line)."""
    return render_jsonl(snapshot_records(snapshot))


def write_jsonl(path: Path | str, records: Iterable[Mapping[str, object]]) -> Path:
    """Write ``records`` to ``path`` as JSONL (empty file for no records)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_jsonl(records))
    return path


def write_metrics(path: Path | str, snapshot: RegistrySnapshot) -> Path:
    """Write the snapshot's series and aggregate record to ``path``."""
    return write_jsonl(path, snapshot_records(snapshot))


def write_trace(path: Path | str, snapshot: RegistrySnapshot) -> Path:
    """Write the flight recorder's retained spans to ``path``."""
    return write_jsonl(path, span_records(snapshot.spans))
