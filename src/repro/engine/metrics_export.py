"""The JSONL export of metrics snapshots.

A :class:`~repro.engine.metrics.RegistrySnapshot`'s cost series and its
chronological total become plain-dict records rendered as JSONL — one
self-describing JSON object per line, sorted keys, non-finite floats as
``null``.  The run's events are exported by ``repro run --csv``
(``<scenario>_events.csv``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from pathlib import Path

from repro.engine.metrics import RegistrySnapshot

__all__ = [
    "render_jsonl",
    "snapshot_records",
    "write_jsonl",
    "write_metrics",
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
    series count, so an exported file is self-contained.
    """
    records: list[dict[str, object]] = [
        {
            "record": "series",
            "name": s.name,
            "kind": "counter",  # the registry keeps counters only
            "labels": dict(s.labels),
            "value": s.value,
        }
        for s in snapshot.series
    ]
    records.append(
        {
            "record": "aggregate",
            "cost_total": snapshot.cost_total,
            "series": len(snapshot.series),
        }
    )
    return records


def write_jsonl(path: Path | str, records: Iterable[Mapping[str, object]]) -> Path:
    """Write ``records`` to ``path`` as JSONL (empty file for no records)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_jsonl(records))
    return path


def write_metrics(path: Path | str, snapshot: RegistrySnapshot) -> Path:
    """Write the snapshot's series and aggregate record to ``path``."""
    return write_jsonl(path, snapshot_records(snapshot))

