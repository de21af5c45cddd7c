"""Structured event tracing for engine runs.

An :class:`EventLog` attached to an executor records the discrete events a
run produces — tuning rounds, index migrations, graceful degradation,
backlog shedding, memory death, fanout cuts, injected faults — with their
tick and context, so experiments can answer "when and why did this scheme
fall behind" without re-running.  Events are plain frozen records; the log is
append-only and cheap (no-op when absent).

Event kinds are one closed tuple, :data:`EVENT_KINDS`.  Creating an
:class:`EngineEvent` of any other kind is a hard error — typos in event
kinds should fail loudly, not silently fragment the log.  A new kind is a
new entry in the tuple.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

#: Every kind an event may have.
EVENT_KINDS = (
    "tune",
    "migration",
    "death",
    "fault",  # recorded only by the test suite's fault harness
    "degrade",
    "shed",
    "fanout_cut",  # a hop past ExecutorConfig.max_fanout ended its request
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

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[EngineEvent]:
        return iter(self._events)
