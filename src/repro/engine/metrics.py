"""Zero-dependency metrics registry and span tracing for engine runs.

The repository's central claim is that the cost-unit virtual clock is a
faithful stand-in for wall-clock throughput — but an aggregate clock cannot
say *which* operator, index, or phase spent the units.  This module is the
instrument: a :class:`MetricsRegistry` holds labelled **counters**,
**gauges**, and fixed-bucket **histograms**, plus tick-based duration
**spans** (ticks, tuples, tuning rounds) with parent links, kept in a
bounded ring of the last :data:`FLIGHT_RECORDER_CAPACITY` so long runs stay
O(1) in memory.  Discrete facts (tuning outcomes, shedding, degradation,
death) are :class:`~repro.engine.tracing.EventLog` events, not spans.

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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

__all__ = [
    "COST_METRIC",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelPairs",
    "MetricsRegistry",
    "RegistrySnapshot",
    "SeriesSnapshot",
    "Span",
    "SpanRecord",
]

#: The cost-unit attribution series every executor charge lands in.
COST_METRIC = "cost_units_total"

#: Sorted ``(name, value)`` pairs — the canonical labelled-series key.
LabelPairs = tuple[tuple[str, str], ...]

#: Default histogram boundaries (upper bounds, ``le`` semantics).
DEFAULT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Spans a registry retains (the most recent ones).
FLIGHT_RECORDER_CAPACITY = 4096


def _label_pairs(labels: Mapping[str, str | None]) -> LabelPairs:
    """Canonicalise a label mapping: drop ``None`` values, sort by name."""
    return tuple(sorted((k, v) for k, v in labels.items() if v is not None))


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
# spans


@dataclass
class Span:
    """One tick-based span: a tuple lifecycle, a tuning round or one tick.

    ``start_tick``/``end_tick`` are engine ticks (the virtual clock's time
    axis), not wall-clock; ``parent_id`` links a tuple to the tick it
    arrived in.  ``end_tick`` is ``None`` while the span is open.
    """

    span_id: int
    name: str
    start_tick: int
    parent_id: int | None = None
    end_tick: int | None = None
    attrs: dict[str, object] = field(default_factory=dict)

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

    def sum_values(self, name: str) -> float:
        """Sum of ``value`` across every series of ``name``."""
        return sum(s.value or 0.0 for s in self.series if s.name == name)


# --------------------------------------------------------------------- #
# the registry


class MetricsRegistry:
    """Labelled metric series plus span tracing for one engine run.

    Series are created on first touch (``registry.counter("probes_total",
    stream="A").inc()``); a name is bound to one instrument kind (and, for
    histograms, one boundary set — :data:`DEFAULT_BUCKETS` unless the
    first touch names its own) at first use — mixing kinds under one
    name is a hard error, like an unregistered event kind.  The registry
    keeps the last :data:`FLIGHT_RECORDER_CAPACITY` completed spans and
    counts every span it ever recorded, so a snapshot reports the drops.

    The registry is process-local and effectively single-writer (engine
    runs are single-threaded); a small lock guards series *creation* so
    concurrent readers/registrars stay safe.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelPairs], Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=FLIGHT_RECORDER_CAPACITY)
        self._spans_recorded = 0
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
                    tuple(float(b) for b in (buckets or DEFAULT_BUCKETS)),
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
        """Close ``span`` at ``tick`` and retain it (the oldest is dropped
        once :data:`FLIGHT_RECORDER_CAPACITY` spans are held)."""
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
        self._spans.append(record)
        self._spans_recorded += 1
        return record

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
            spans=tuple(self._spans),
            spans_dropped=self._spans_recorded - len(self._spans),
        )

    def __len__(self) -> int:
        return len(self._series)
