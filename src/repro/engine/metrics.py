"""Zero-dependency metrics registry and span tracing for engine runs.

The repository's central claim is that the cost-unit virtual clock is a
faithful stand-in for wall-clock throughput — but an aggregate clock cannot
say *which* operator, index, or phase spent the units.  This module is the
instrument: a :class:`MetricsRegistry` holds labelled **counters**,
**gauges**, and fixed-bucket **histograms**, plus tick-based **spans** with
parent links recorded into a bounded :class:`FlightRecorder` ring buffer, so
long runs stay O(1) in memory while the last N ticks remain fully
reconstructible after a death or degradation event.

Two invariants the rest of the stack relies on:

1. **Exact cost attribution.**  Every executor charge flows through
   :meth:`MetricsRegistry.charge`, which adds the *same float, in the same
   order* to the chronological :attr:`MetricsRegistry.cost_total` as the
   :class:`~repro.engine.resources.ResourceMeter` adds to ``total_spent`` —
   so the attributed total equals the virtual-clock total bit-for-bit (no
   double-counting, no leakage).  Per-series sums regroup the same charges
   and therefore agree with the total up to float associativity (≤ 1 ulp
   per charge).
2. **No observer effect.**  Attaching a registry never touches engine
   state, RNG streams, or the virtual clock; with no registry attached
   every hook is a no-op.  The observer-conformance matrix asserts
   byte-identical runs with metrics on and off.

Snapshots (:class:`RegistrySnapshot`) are plain frozen data — picklable
across process pools and rendered as JSONL by
:mod:`repro.engine.metrics_export`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

__all__ = [
    "COST_METRIC",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LabelPairs",
    "MetricsRegistry",
    "RegistrySnapshot",
    "SeriesSnapshot",
    "Span",
    "SpanRecord",
    "cost_label_key",
]

#: The cost-unit attribution series every executor charge lands in.
COST_METRIC = "cost_units_total"

#: Sorted ``(name, value)`` pairs — the canonical labelled-series key.
LabelPairs = tuple[tuple[str, str], ...]

#: Default histogram boundaries (upper bounds, ``le`` semantics).
DEFAULT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _label_pairs(labels: Mapping[str, str | None]) -> LabelPairs:
    """Canonicalise a label mapping: drop ``None`` values, sort by name."""
    return tuple(sorted((k, v) for k, v in labels.items() if v is not None))


def cost_label_key(
    component: str,
    stream: str | None = None,
    index_kind: str | None = None,
    phase: str | None = None,
) -> LabelPairs:
    """The series key of one cost-attribution label combination."""
    return _label_pairs(
        {
            "component": component,
            "stream": stream,
            "index_kind": index_kind,
            "phase": phase,
        }
    )


# --------------------------------------------------------------------- #
# instruments


@dataclass
class Counter:
    """A monotonically increasing sum (cost units, tuples, probes...)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (backlog, memory bytes, entries)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram with ``le`` (less-or-equal) semantics.

    ``boundaries`` are finite upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  Bucket counts are stored per-bucket and exported
    cumulatively.
    """

    __slots__ = ("boundaries", "bucket_counts", "total", "count")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"boundaries must be strictly increasing, got {bounds}")
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


Instrument = Counter | Gauge | Histogram


# --------------------------------------------------------------------- #
# spans and the flight recorder


@dataclass
class Span:
    """One tick-based span: a tuple lifecycle, a tuning round, one tick...

    ``start_tick``/``end_tick`` are engine ticks (the virtual clock's time
    axis), not wall-clock; ``parent_id`` links child spans (a per-state
    tuning round inside its tuning-round span, a tuple inside the tick it
    arrived in).  ``end_tick`` is ``None`` while the span is open.
    """

    span_id: int
    name: str
    start_tick: int
    parent_id: int | None = None
    end_tick: int | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end_tick is None

    @property
    def duration_ticks(self) -> int | None:
        return None if self.end_tick is None else self.end_tick - self.start_tick

    def to_record(self) -> "SpanRecord":
        return SpanRecord(
            span_id=self.span_id,
            name=self.name,
            start_tick=self.start_tick,
            end_tick=self.end_tick if self.end_tick is not None else self.start_tick,
            parent_id=self.parent_id,
            attrs=tuple(sorted(self.attrs.items())),
        )


@dataclass(frozen=True)
class SpanRecord:
    """A completed span, frozen for snapshots and export."""

    span_id: int
    name: str
    start_tick: int
    end_tick: int
    parent_id: int | None = None
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration_ticks(self) -> int:
        return self.end_tick - self.start_tick

    def to_dict(self) -> dict[str, object]:
        d: dict[str, object] = {
            "span_id": self.span_id,
            "name": self.name,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "parent_id": self.parent_id,
        }
        d.update({f"attr_{k}": v for k, v in self.attrs})
        return d


class FlightRecorder:
    """Bounded ring buffer of completed spans.

    Keeps the most recent ``capacity`` spans in O(capacity) memory however
    long the run: enough to reconstruct the last N ticks after a death or
    degradation event without letting tracing grow with run length.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        self.recorded = 0  # total ever recorded (dropped = recorded - len)

    def add(self, record: SpanRecord) -> None:
        self._ring.append(record)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring so far."""
        return self.recorded - len(self._ring)

    def spans(self) -> list[SpanRecord]:
        """Retained spans, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._ring)


# --------------------------------------------------------------------- #
# snapshots


@dataclass(frozen=True)
class SeriesSnapshot:
    """One labelled series, frozen.

    ``value`` carries counter/gauge values; histograms use ``buckets``
    (cumulative ``(le, count)`` pairs), ``total``, and ``count`` instead.
    """

    name: str
    kind: str
    labels: LabelPairs = ()
    value: float | None = None
    buckets: tuple[tuple[float, int], ...] = ()
    total: float = 0.0
    count: int = 0

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


@dataclass(frozen=True)
class RegistrySnapshot:
    """Everything a registry measured, frozen for export and transport."""

    series: tuple[SeriesSnapshot, ...] = ()
    cost_total: float = 0.0
    spans: tuple[SpanRecord, ...] = ()
    spans_dropped: int = 0

    def cost_series(self) -> list[SeriesSnapshot]:
        """The cost-attribution series only."""
        return [s for s in self.series if s.name == COST_METRIC]

    def cost_by(self, *label_names: str) -> dict[tuple[str, ...], float]:
        """Cost units grouped by the requested labels (missing → '-')."""
        out: dict[tuple[str, ...], float] = {}
        for s in self.cost_series():
            labels = s.label_dict()
            key = tuple(labels.get(name, "-") for name in label_names)
            out[key] = out.get(key, 0.0) + (s.value or 0.0)
        return out

    def get(self, name: str, **labels: str) -> SeriesSnapshot | None:
        """The series with exactly these labels, if recorded."""
        want = _label_pairs(labels)
        for s in self.series:
            if s.name == name and s.labels == want:
                return s
        return None

    def sum_values(self, name: str) -> float:
        """Sum of ``value`` across every series of ``name``."""
        return sum(s.value or 0.0 for s in self.series if s.name == name)


# --------------------------------------------------------------------- #
# the registry


class MetricsRegistry:
    """Labelled metric series plus span tracing for one engine run.

    Series are created on first touch (``registry.counter("probes_total",
    stream="A").inc()``); a name is bound to one instrument kind (and, for
    histograms, one boundary set) at first use — mixing kinds under one
    name is a hard error, like an unregistered event kind.

    The registry is process-local and effectively single-writer (engine
    runs are single-threaded); a small lock guards series *creation* so
    concurrent readers/registrars stay safe.
    """

    def __init__(
        self,
        *,
        flight_recorder_capacity: int = 4096,
        default_buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self._series: dict[tuple[str, LabelPairs], Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self._lock = threading.Lock()
        self._default_buckets = tuple(float(b) for b in default_buckets)
        self.flight = FlightRecorder(flight_recorder_capacity)
        self._next_span_id = 0
        #: Chronological sum of every cost charge — bit-identical to the
        #: meter's ``total_spent`` because both add the same floats in the
        #: same order starting from 0.0.
        self.cost_total = 0.0

    # -- series ---------------------------------------------------------- #

    def _get(
        self,
        name: str,
        kind: str,
        labels: Mapping[str, str | None],
        buckets: Sequence[float] | None = None,
    ) -> Instrument:
        key = (name, _label_pairs(labels))
        inst = self._series.get(key)
        if inst is not None:
            if self._kinds[name] != kind:
                raise ValueError(
                    f"metric {name!r} is a {self._kinds[name]}, not a {kind}"
                )
            return inst
        with self._lock:
            inst = self._series.get(key)
            if inst is not None:
                return inst
            bound_kind = self._kinds.setdefault(name, kind)
            if bound_kind != kind:
                raise ValueError(f"metric {name!r} is a {bound_kind}, not a {kind}")
            if kind == "counter":
                inst = Counter()
            elif kind == "gauge":
                inst = Gauge()
            else:
                bounds = self._buckets.setdefault(
                    name,
                    tuple(float(b) for b in (buckets or self._default_buckets)),
                )
                inst = Histogram(bounds)
            self._series[key] = inst
            return inst

    def counter(self, name: str, **labels: str | None) -> Counter:
        """Get-or-create the counter series ``name{labels}``."""
        inst = self._get(name, "counter", labels)
        assert isinstance(inst, Counter)
        return inst

    def gauge(self, name: str, **labels: str | None) -> Gauge:
        """Get-or-create the gauge series ``name{labels}``."""
        inst = self._get(name, "gauge", labels)
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        **labels: str | None,
    ) -> Histogram:
        """Get-or-create the histogram series ``name{labels}``.

        ``buckets`` is honoured on the *first* use of ``name``; later calls
        reuse the bound boundaries so every series of one family shares
        them.
        """
        inst = self._get(name, "histogram", labels, buckets)
        assert isinstance(inst, Histogram)
        return inst

    # -- cost attribution ------------------------------------------------ #

    def charge(
        self,
        cost: float,
        component: str,
        *,
        stream: str | None = None,
        index_kind: str | None = None,
        phase: str | None = None,
    ) -> None:
        """Attribute one virtual-clock charge to a labelled series.

        Callers pass the *same float* they spend on the meter, immediately
        after spending it, so :attr:`cost_total` replays the meter's exact
        accumulation sequence.
        """
        self.cost_total += cost
        self.counter(
            COST_METRIC,
            component=component,
            stream=stream,
            index_kind=index_kind,
            phase=phase,
        ).inc(cost)

    # -- spans ----------------------------------------------------------- #

    def start_span(
        self,
        name: str,
        tick: int,
        parent: Span | None = None,
        **attrs: object,
    ) -> Span:
        """Open a span at ``tick`` (ids are sequential and deterministic)."""
        span = Span(
            span_id=self._next_span_id,
            name=name,
            start_tick=tick,
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        self._next_span_id += 1
        return span

    def end_span(self, span: Span, tick: int, **attrs: object) -> SpanRecord:
        """Close ``span`` at ``tick`` and commit it to the flight recorder."""
        if span.end_tick is not None:
            raise ValueError(f"span {span.span_id} ({span.name}) already ended")
        if tick < span.start_tick:
            raise ValueError(
                f"span cannot end before it starts ({tick} < {span.start_tick})"
            )
        span.end_tick = tick
        if attrs:
            span.attrs.update(attrs)
        record = span.to_record()
        self.flight.add(record)
        return record

    def point_span(self, name: str, tick: int, parent: Span | None = None, **attrs: object) -> SpanRecord:
        """A zero-duration span: a discrete event on the trace timeline."""
        return self.end_span(self.start_span(name, tick, parent, **attrs), tick)

    # -- snapshot -------------------------------------------------------- #

    def snapshot(self) -> RegistrySnapshot:
        """Freeze the current state (series sorted for determinism)."""
        series: list[SeriesSnapshot] = []
        for (name, labels), inst in self._series.items():
            kind = self._kinds[name]
            if isinstance(inst, Histogram):
                series.append(
                    SeriesSnapshot(
                        name=name,
                        kind=kind,
                        labels=labels,
                        buckets=tuple(inst.cumulative()),
                        total=inst.total,
                        count=inst.count,
                    )
                )
            else:
                series.append(
                    SeriesSnapshot(name=name, kind=kind, labels=labels, value=inst.value)
                )
        series.sort(key=lambda s: (s.name, s.labels))
        return RegistrySnapshot(
            series=tuple(series),
            cost_total=self.cost_total,
            spans=tuple(self.flight.spans()),
            spans_dropped=self.flight.dropped,
        )

    def __len__(self) -> int:
        return len(self._series)
