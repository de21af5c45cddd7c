"""The JSONL export of metrics snapshots and the run timeline.

One export path for everything the engine records: a
:class:`~repro.engine.metrics.RegistrySnapshot`'s series, and its
retained spans together with the run's
:class:`~repro.engine.tracing.EngineEvent` stream (one timeline), become
plain-dict records rendered as JSONL — one self-describing JSON object per line,
sorted keys, non-finite floats as ``null``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from pathlib import Path

from repro.engine.metrics import RegistrySnapshot
from repro.engine.tracing import EngineEvent

__all__ = [
    "event_records",
    "render_jsonl",
    "snapshot_records",
    "write_jsonl",
    "write_metrics",
    "write_trace",
]


def render_jsonl(records: Iterable[Mapping[str, object]]) -> str:
    """JSONL text: one line per record (sorted keys, non-finite floats as
    ``null``), newline-terminated; ``""`` for none."""
    return "".join(
        json.dumps(
            {
                k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                for k, v in rec.items()
            },
            sort_keys=True,
        )
        + "\n"
        for rec in records
    )


def snapshot_records(snapshot: RegistrySnapshot) -> list[dict[str, object]]:
    """One dict per series, plus one trailing aggregate record.

    The aggregate record carries ``cost_total`` — the chronological grand
    total that equals the executor's virtual-clock total exactly — and the
    count of spans retained and dropped, so an exported file is
    self-contained.
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


def event_records(events: Iterable[EngineEvent]) -> list[dict[str, object]]:
    """One ``event`` record per engine event, in recording order."""
    return [
        {
            "record": "event",
            "tick": e.tick,
            "kind": e.kind,
            "stream": e.stream,
            "detail": dict(e.detail),
        }
        for e in events
    ]


def write_jsonl(path: Path | str, records: Iterable[Mapping[str, object]]) -> Path:
    """Write ``records`` to ``path`` as JSONL (empty file for no records)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_jsonl(records))
    return path


def write_metrics(path: Path | str, snapshot: RegistrySnapshot) -> Path:
    """Write the snapshot's series and aggregate record to ``path``."""
    return write_jsonl(path, snapshot_records(snapshot))


def write_trace(
    path: Path | str, snapshot: RegistrySnapshot, events: Iterable[EngineEvent]
) -> Path:
    """Write the run's timeline to ``path``: the retained spans and every
    event, ordered by tick (a span's ``start_tick``, an event's ``tick``).

    Within one tick the spans come first, then the events, each in
    recording order.  A span line is ``SpanRecord.to_dict()`` plus
    ``"record": "span"``; an event line is :func:`event_records`' shape.
    """
    keyed = [((s.start_tick, 0), {"record": "span", **s.to_dict()}) for s in snapshot.spans]
    keyed += [((rec["tick"], 1), rec) for rec in event_records(events)]
    keyed.sort(key=lambda pair: pair[0])  # stable: recording order within a key
    return write_jsonl(path, [rec for _, rec in keyed])
