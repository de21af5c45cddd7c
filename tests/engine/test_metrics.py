"""Tests for the metrics registry, spans, flight recorder, and exporters."""

import json
import math
import pickle

import pytest

from repro.engine.metrics import (
    COST_METRIC,
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRecord,
    cost_label_key,
)
from repro.engine.metrics_export import (
    spans_to_jsonl,
    to_jsonl,
    write_metrics,
    write_trace,
)


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


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
        assert cost_label_key("index", stream="A") == (
            ("component", "index"),
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
        probe = snap.get(
            COST_METRIC, component="index", stream="A",
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
        assert rec.duration_ticks == 2
        assert dict(rec.attrs) == {"stream": "A", "status": "processed"}
        reg.end_span(tick, 5)
        assert [r.name for r in reg.flight.spans()] == ["tuple", "tick"]

    def test_double_end_and_backwards_end_rejected(self):
        reg = MetricsRegistry()
        span = reg.start_span("tick", 5)
        with pytest.raises(ValueError):
            reg.end_span(span, 3)
        reg.end_span(span, 5)
        with pytest.raises(ValueError):
            reg.end_span(span, 6)

    def test_point_span_is_zero_duration(self):
        reg = MetricsRegistry()
        rec = reg.point_span("death", 42, used=99)
        assert rec.start_tick == rec.end_tick == 42
        assert rec.duration_ticks == 0

    def test_span_record_to_dict_prefixes_attrs(self):
        rec = SpanRecord(1, "tuple", 3, 5, parent_id=0, attrs=(("stream", "A"),))
        d = rec.to_dict()
        assert d["attr_stream"] == "A"
        assert d["span_id"] == 1 and d["parent_id"] == 0


class TestFlightRecorder:
    def test_ring_keeps_last_capacity_and_counts_drops(self):
        fr = FlightRecorder(capacity=3)
        for i in range(10):
            fr.add(SpanRecord(i, "tick", i, i))
        assert len(fr) == 3
        assert fr.recorded == 10
        assert fr.dropped == 7
        assert [r.span_id for r in fr.spans()] == [7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


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
        records = parse_jsonl(to_jsonl(snap))
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
        records = parse_jsonl(to_jsonl(reg.snapshot()))
        assert records[0]["value"] is None

    def test_write_metrics_and_trace_files(self, populated_registry, tmp_path):
        snap = populated_registry.snapshot()
        mpath = write_metrics(tmp_path / "m.jsonl", snap)
        assert mpath.read_text() == to_jsonl(snap)
        assert parse_jsonl(mpath.read_text())[-1]["record"] == "aggregate"
        tpath = write_trace(tmp_path / "t.jsonl", snap)
        spans = parse_jsonl(tpath.read_text())
        assert spans and spans[0]["name"] == "tick"


class TestSpansToJsonl:
    def test_empty_spans_render_as_empty_string(self):
        assert spans_to_jsonl(()) == ""

    def test_one_line_per_span_trailing_newline(self):
        spans = (
            SpanRecord(1, "tick", 0, 1),
            SpanRecord(2, "tuple", 1, 1, parent_id=1, attrs=(("stream", "A"),)),
        )
        text = spans_to_jsonl(spans)
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["span_id"] for r in records] == [1, 2]
        assert records[1]["attr_stream"] == "A"

    def test_matches_write_trace_output(self, tmp_path):
        reg = MetricsRegistry()
        span = reg.start_span("tick", 3)
        reg.end_span(span, 4, cost=1.0)
        snap = reg.snapshot()
        path = write_trace(tmp_path / "trace.jsonl", snap)
        assert path.read_text() == spans_to_jsonl(snap.spans)

    def test_matches_event_log_jsonl_shape(self):
        """Spans and events share one export pipeline (sorted keys, one
        JSON object per line) so downstream tools parse either stream."""
        from repro.engine.tracing import EventLog

        log = EventLog()
        log.record(1, "fault", stream="A", factor=3)
        for text in (log.to_jsonl(), spans_to_jsonl((SpanRecord(1, "tick", 0, 1),))):
            (line,) = text.splitlines()
            rec = json.loads(line)
            assert list(rec) == sorted(rec)
        assert log.to_jsonl().endswith("\n")
