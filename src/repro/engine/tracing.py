"""Structured event tracing for engine runs.

An :class:`EventLog` attached to an executor records the discrete events a
run produces — tuning rounds, index migrations, injected faults, graceful
degradation, backlog shedding, memory death — with their tick and context,
so experiments can answer "when and why did this scheme fall behind"
without re-running.  Events are plain frozen records; the log is
append-only and cheap (no-op when absent).

Event kinds are one closed tuple, :data:`EVENT_KINDS`.  Creating an
:class:`EngineEvent` of any other kind is a hard error — typos in event
kinds should fail loudly, not silently fragment the log.  A new kind is a
new entry in the tuple.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

#: Every kind an event may have.
EVENT_KINDS = (
    "tune",
    "migration",
    "death",
    "fault",
    "degrade",
    "shed",
    "slo_breach",
    "slo_recovered",
)


@dataclass(frozen=True, slots=True)
class EngineEvent:
    """One discrete engine event."""

    tick: int
    kind: str
    stream: str | None = None
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of {list(EVENT_KINDS)}"
            )

    def __str__(self) -> str:
        where = f" [{self.stream}]" if self.stream else ""
        info = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"t={self.tick} {self.kind}{where}: {info}"


class EventLog:
    """Append-only run event log."""

    def __init__(self) -> None:
        self._events: list[EngineEvent] = []

    def record(
        self,
        tick: int,
        kind: str,
        stream: str | None = None,
        **detail: object,
    ) -> EngineEvent:
        """Append one event and return it."""
        event = EngineEvent(tick=tick, kind=kind, stream=stream, detail=detail)
        self._events.append(event)
        return event

    def events(self, kind: str | None = None, stream: str | None = None) -> list[EngineEvent]:
        """Events, optionally filtered by kind and/or stream."""
        out = self._events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if stream is not None:
            out = [e for e in out if e.stream == stream]
        return list(out)

    def counts_by_kind(self) -> dict[str, int]:
        """How many events of each kind the run produced."""
        return dict(Counter(e.kind for e in self._events))

    def migrations_by_stream(self) -> dict[str, int]:
        """Migration counts per state — where the tuner is working hardest."""
        return dict(
            Counter(
                e.stream
                for e in self._events
                if e.kind == "migration" and e.stream is not None
            )
        )

    def to_lines(self) -> list[str]:
        """Human-readable one-liners, in recording order."""
        return [str(e) for e in self._events]

    def to_records(self) -> list[dict[str, object]]:
        """Plain-dict records, shaped for the shared metrics export path."""
        from repro.engine.metrics_export import event_records

        return event_records(self._events)

    def to_jsonl(self) -> str:
        """The log as JSONL — same pipeline metrics snapshots export through."""
        from repro.engine.metrics_export import to_jsonl_lines

        lines = to_jsonl_lines(self.to_records())
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[EngineEvent]:
        return iter(self._events)
