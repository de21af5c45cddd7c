"""Tests for the metrics registry, spans, and the JSONL exporters."""

import json
import math
import pickle

import pytest

from repro.engine.metrics import (
    COST_METRIC,
    FLIGHT_RECORDER_CAPACITY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySnapshot,
    SpanRecord,
)
from repro.engine.metrics_export import (
    render_jsonl,
    snapshot_records,
    write_metrics,
    write_trace,
)
from repro.engine.tracing import EventLog
from tests.conftest import series


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


def snapshot_jsonl(snapshot):
    return render_jsonl(snapshot_records(snapshot))


def trace_text(tmp_path, spans=(), events=()):
    """The trace JSONL of these span records and events."""
    return write_trace(tmp_path / "t.jsonl", RegistrySnapshot(spans=tuple(spans)), events).read_text()


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)

    def test_gauge_set(self):
        g = Gauge()
        g.set(10)
        g.set(3)
        assert g.value == 3.0

    def test_histogram_le_semantics(self):
        h = Histogram(boundaries=(1.0, 4.0))
        for v in (0.5, 1.0, 2.0, 4.0, 100.0):
            h.observe(v)
        # le semantics: 1.0 lands in the le=1 bucket, 4.0 in le=4.
        assert h.bucket_counts == [2, 2, 1]
        cum = h.cumulative()
        assert cum == [(1.0, 2), (4.0, 4), (float("inf"), 5)]
        assert h.total == pytest.approx(107.5)
        assert h.count == 5

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=())
        with pytest.raises(ValueError):
            Histogram(boundaries=(4.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(boundaries=(1.0, 1.0))


class TestRegistrySeries:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("probes_total", stream="A")
        b = reg.counter("probes_total", stream="A")
        assert a is b
        assert reg.counter("probes_total", stream="B") is not a
        assert len(reg) == 2

    def test_label_canonicalisation(self):
        reg = MetricsRegistry()
        # Order of keyword labels never matters; None labels are dropped.
        a = reg.counter("x", stream="A", phase="probe")
        b = reg.counter("x", phase="probe", stream="A")
        c = reg.counter("x", stream="A", phase="probe", index_kind=None)
        assert a is b is c
        a.inc()
        assert series(reg.snapshot(), "x", stream="A", phase="probe").labels == (
            ("phase", "probe"),
            ("stream", "A"),
        )

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("n")
        with pytest.raises(ValueError, match="is a counter"):
            reg.histogram("n")
        # Also on the fast path, when the exact series already exists.
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("n")

    def test_histogram_buckets_bound_at_first_use(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat", buckets=(1.0, 10.0), stream="A")
        h2 = reg.histogram("lat", buckets=(5.0, 50.0), stream="B")  # ignored
        assert h1.boundaries == h2.boundaries == (1.0, 10.0)

    def test_charge_updates_cost_total_and_series(self):
        reg = MetricsRegistry()
        reg.charge(2.5, "index", stream="A", index_kind="bit_address", phase="probe")
        reg.charge(1.5, "index", stream="A", index_kind="bit_address", phase="probe")
        reg.charge(1.0, "router", phase="decide")
        assert reg.cost_total == 5.0
        snap = reg.snapshot()
        probe = series(
            snap, COST_METRIC, component="index", stream="A",
            index_kind="bit_address", phase="probe",
        )
        assert probe is not None and probe.value == 4.0
        assert snap.sum_values(COST_METRIC) == 5.0
        assert snap.cost_by("component") == {("index",): 4.0, ("router",): 1.0}
        # Missing labels group under '-'.
        assert snap.cost_by("stream") == {("A",): 4.0, ("-",): 1.0}

    def test_snapshot_is_frozen_sorted_and_picklable(self):
        reg = MetricsRegistry()
        reg.counter("z_last").inc()
        reg.counter("a_first", stream="B").inc()
        reg.counter("a_first", stream="A").inc()
        snap = reg.snapshot()
        keys = [(s.name, s.labels) for s in snap.series]
        assert keys == sorted(keys)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap


class TestSpans:
    def test_ids_are_sequential_and_parents_link(self):
        reg = MetricsRegistry()
        tick = reg.start_span("tick", 5)
        child = reg.start_span("tuple", 5, parent=tick, stream="A")
        assert (tick.span_id, child.span_id) == (0, 1)
        assert child.parent_id == 0
        rec = reg.end_span(child, 7, status="processed")
        assert (rec.start_tick, rec.end_tick) == (5, 7)
        assert dict(rec.attrs) == {"stream": "A", "status": "processed"}
        reg.end_span(tick, 5)
        assert [r.name for r in reg.snapshot().spans] == ["tuple", "tick"]

    def test_double_end_and_backwards_end_rejected(self):
        reg = MetricsRegistry()
        span = reg.start_span("tick", 5)
        with pytest.raises(ValueError):
            reg.end_span(span, 3)
        reg.end_span(span, 5)
        with pytest.raises(ValueError):
            reg.end_span(span, 6)

    def test_a_full_ring_drops_the_oldest_span(self):
        reg = MetricsRegistry()
        for t in range(FLIGHT_RECORDER_CAPACITY + 1):
            reg.end_span(reg.start_span("tick", t), t)
        snap = reg.snapshot()
        assert snap.spans_dropped == 1
        assert len(snap.spans) == FLIGHT_RECORDER_CAPACITY
        assert snap.spans[0].span_id == 1
        assert snap.spans[-1].span_id == FLIGHT_RECORDER_CAPACITY

    def test_span_record_to_dict_prefixes_attrs(self):
        rec = SpanRecord(1, "tuple", 3, 5, parent_id=0, attrs=(("stream", "A"),))
        d = rec.to_dict()
        assert d["attr_stream"] == "A"
        assert d["span_id"] == 1 and d["parent_id"] == 0


@pytest.fixture
def populated_registry():
    reg = MetricsRegistry()
    reg.charge(2.5, "index", stream="A", index_kind="bit_address", phase="probe")
    reg.charge(0.2, "router", phase="decide")
    reg.counter("probes_total", stream="A").inc(7)
    reg.gauge("backlog").set(3)
    h = reg.histogram("probe_matches", buckets=(1.0, 4.0))
    for v in (0, 1, 3, 9):
        h.observe(v)
    span = reg.start_span("tick", 1)
    reg.end_span(span, 1, cost=2.7)
    return reg


class TestExporters:
    def test_jsonl_round_trip(self, populated_registry):
        snap = populated_registry.snapshot()
        records = parse_jsonl(snapshot_jsonl(snap))
        series = [r for r in records if r["record"] == "series"]
        assert len(series) == len(snap.series)
        aggregate = records[-1]
        assert aggregate["record"] == "aggregate"
        assert aggregate["cost_total"] == snap.cost_total
        hist = next(r for r in series if r["name"] == "probe_matches")
        assert hist["buckets"] == [[1.0, 2], [4.0, 3], ["+Inf", 4]]
        assert hist["count"] == 4

    def test_jsonl_replaces_non_finite_floats(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        records = parse_jsonl(snapshot_jsonl(reg.snapshot()))
        assert records[0]["value"] is None

    def test_write_metrics_and_trace_files(self, populated_registry, tmp_path):
        snap = populated_registry.snapshot()
        mpath = write_metrics(tmp_path / "m.jsonl", snap)
        assert mpath.read_text() == snapshot_jsonl(snap)
        assert parse_jsonl(mpath.read_text())[-1]["record"] == "aggregate"
        tpath = write_trace(tmp_path / "t.jsonl", snap, ())
        spans = parse_jsonl(tpath.read_text())
        assert spans and spans[0]["name"] == "tick"


class TestSpansToJsonl:
    """Spans and events reach JSONL through one writer, ``write_trace``."""

    def test_empty_spans_render_as_empty_string(self, tmp_path):
        assert trace_text(tmp_path) == ""

    def test_one_line_per_span_trailing_newline(self, tmp_path):
        spans = (
            SpanRecord(1, "tick", 0, 1),
            SpanRecord(2, "tuple", 1, 1, parent_id=1, attrs=(("stream", "A"),)),
        )
        text = trace_text(tmp_path, spans)
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["span_id"] for r in records] == [1, 2]
        assert [r["record"] for r in records] == ["span", "span"]
        assert records[1]["attr_stream"] == "A"

    def test_matches_write_trace_output(self, tmp_path):
        """A span line is its ``to_dict()`` plus ``"record": "span"``."""
        reg = MetricsRegistry()
        span = reg.start_span("tick", 3)
        reg.end_span(span, 4, cost=1.0)
        snap = reg.snapshot()
        path = write_trace(tmp_path / "trace.jsonl", snap, ())
        (record,) = parse_jsonl(path.read_text())
        assert record == {"record": "span", **snap.spans[0].to_dict()}

    def test_matches_event_log_jsonl_shape(self, tmp_path):
        """Span and event lines share one shape (sorted keys, one JSON
        object per line) so downstream tools parse one stream."""
        log = EventLog()
        log.record(1, "fault", stream="A", factor=3)
        text = trace_text(tmp_path, (SpanRecord(1, "tick", 0, 1),), log)
        assert text.endswith("\n")
        for line in text.splitlines():
            rec = json.loads(line)
            assert list(rec) == sorted(rec)

    def test_spans_then_events_within_a_tick_by_recording_order(self, tmp_path):
        spans = (
            SpanRecord(0, "tuple", 2, 3),
            SpanRecord(1, "tick", 0, 0),
            SpanRecord(2, "tick", 2, 2),
        )
        log = EventLog()
        log.record(2, "shed", None, count=1)
        log.record(0, "fault", "A", fault="stall")
        log.record(2, "degrade", "B", to="scan")
        records = parse_jsonl(trace_text(tmp_path, spans, log))
        assert [(r["record"], r.get("span_id"), r.get("kind")) for r in records] == [
            ("span", 1, None),
            ("event", None, "fault"),
            ("span", 0, None),
            ("span", 2, None),
            ("event", None, "shed"),
            ("event", None, "degrade"),
        ]
