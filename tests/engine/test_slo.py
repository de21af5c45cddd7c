"""Unit tests for the latency/SLO plane: tracker, snapshot merge, spec,
and the multi-window burn-rate monitor."""

import pickle

import pytest

from repro.engine.slo import (
    LATENCY_BUCKETS,
    SLO_BREACH,
    SLO_RECOVERED,
    LatencyTracker,
    SloMonitor,
    SloSpec,
)
from repro.engine.tracing import EVENT_KINDS


class TestLatencyTracker:
    def test_observe_accumulates_aggregate_and_per_stream(self):
        t = LatencyTracker(boundaries=(1.0, 4.0))
        t.observe("A", 0.0, outputs=2)
        t.observe("A", 3.0)
        t.observe("B", 9.0)
        assert t.bucket_counts == [1, 1, 1]
        assert t.per_stream["A"] == [1, 1, 0]
        assert t.per_stream["B"] == [0, 0, 1]
        assert t.count == 3
        assert t.total == 12.0
        assert t.results == 2
        assert t.results_latency_total == 0.0
        assert t.cumulative() == [(1.0, 1), (4.0, 2), (float("inf"), 3)]

    def test_threshold_counts_violations(self):
        t = LatencyTracker(threshold=4.0)
        t.observe("A", 4.0)  # at threshold: not a violation (<=)
        t.observe("A", 4.5)
        assert (t.observed, t.violations) == (2, 1)

    def test_without_threshold_nothing_violates(self):
        t = LatencyTracker()
        t.observe("A", 1e9)
        t.observe_shed("A", 5.0)
        assert t.violations == 0

    def test_shed_consumes_budget_but_not_histograms(self):
        t = LatencyTracker(threshold=4.0)
        t.observe_shed("A", 2.0)
        assert t.count == 0 and sum(t.bucket_counts) == 0
        assert (t.observed, t.violations, t.shed) == (1, 1, 1)
        assert t.shed_by_stream == {"A": 1}

    def test_reservoir_keeps_first_n_exactly(self):
        t = LatencyTracker(reservoir_capacity=3)
        for v in (5.0, 1.0, 2.0, 9.0):
            t.observe("A", v)
        assert t.reservoir == [5.0, 1.0, 2.0]
        assert t.reservoir_dropped == 1

    def test_quantile_matches_exact_on_small_run(self):
        t = LatencyTracker(boundaries=(1.0, 2.0, 4.0, 8.0))
        values = [0.5, 1.5, 2.5, 3.0, 6.0]
        for v in values:
            t.observe("A", v)
        snap = t.snapshot()
        exact = snap.exact_quantile(0.5)
        est = snap.quantile(0.5)
        assert exact == sorted(values)[2]
        # ±1 bucket width around the median (bucket (2, 4]).
        assert abs(est - exact) <= 2.0

    def test_rejects_bad_boundaries_and_capacity(self):
        with pytest.raises(ValueError):
            LatencyTracker(boundaries=())
        with pytest.raises(ValueError):
            LatencyTracker(boundaries=(4.0, 1.0))
        with pytest.raises(ValueError):
            LatencyTracker(reservoir_capacity=-1)

    def test_default_boundaries(self):
        assert LatencyTracker().boundaries == LATENCY_BUCKETS


class TestLatencySnapshot:
    def populated(self):
        t = LatencyTracker(boundaries=(1.0, 4.0), threshold=4.0)
        t.observe("A", 0.5, outputs=1)
        t.observe("B", 3.0)
        t.observe("B", 9.0)
        t.observe_shed("A", 6.0)
        return t.snapshot()

    def test_snapshot_is_frozen_and_picklable(self):
        snap = self.populated()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        with pytest.raises(AttributeError):
            snap.count = 0

    def test_mean_and_violation_fraction(self):
        snap = self.populated()
        assert snap.mean == pytest.approx(12.5 / 3)
        # 9.0 violated, plus the shed request: 2 of 4 observations.
        assert snap.violation_fraction == pytest.approx(0.5)

    def test_empty_snapshot_mean_is_none(self):
        snap = LatencyTracker().snapshot()
        assert snap.mean is None
        assert snap.quantile(0.5) is None
        assert snap.violation_fraction == 0.0

    def test_exact_quantile_none_after_reservoir_overflow(self):
        t = LatencyTracker(reservoir_capacity=1)
        t.observe("A", 1.0)
        assert t.snapshot().exact_quantile(0.5) == 1.0
        t.observe("A", 2.0)
        assert t.snapshot().exact_quantile(0.5) is None

    def test_stream_quantile_unknown_stream_is_none(self):
        snap = self.populated()
        assert snap.stream_quantile("A", 0.5) is not None
        assert snap.stream_quantile("nope", 0.5) is None

    def test_to_records_shapes(self):
        records = self.populated().to_records()
        assert records[0]["record"] == "latency"
        assert records[0]["scope"] == "aggregate"
        assert records[0]["observed"] == 4
        streams = [r["stream"] for r in records if r["scope"] == "stream"]
        assert streams == ["A", "B"]


class TestSloSpec:
    @pytest.mark.parametrize(
        "text",
        ["p95<=8@120", "p99<=16@240/20", "p95<=8@120:degrade", "p99.9<=32@600/50:degrade"],
    )
    def test_parse_describe_round_trip(self, text):
        spec = SloSpec.parse(text)
        assert spec.describe() == text
        assert SloSpec.parse(spec.describe()) == spec

    def test_parse_fields(self):
        spec = SloSpec.parse("p95<=8@120/10:degrade")
        assert spec.quantile == pytest.approx(0.95)
        assert spec.threshold_ticks == 8.0
        assert spec.window == 120
        assert spec.fast_window == 10
        assert spec.degrade_on_breach

    def test_error_budget_and_default_fast_window(self):
        spec = SloSpec.parse("p95<=8@120")
        assert spec.error_budget == pytest.approx(0.05)
        assert spec.fast == 10  # window // 12
        assert SloSpec.parse("p95<=8@5").fast == 1  # floor of 1

    @pytest.mark.parametrize(
        "bad",
        ["", "p95<=8", "95<=8@120", "p95<8@120", "p0<=8@120", "p100<=8@120",
         "p95<=8@120/121", "p95<=8@0", "p95<=8@120:shed"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SloSpec.parse(bad)

    def test_event_kinds_registered(self):
        assert SLO_BREACH == "slo_breach" and SLO_BREACH in EVENT_KINDS
        assert SLO_RECOVERED == "slo_recovered" and SLO_RECOVERED in EVENT_KINDS


class TestSloMonitor:
    def drive(self, monitor, tracker, ticks, violating):
        """Feed `ticks` ticks of 10 observations, `violating` of them bad."""
        out = []
        for _ in range(ticks):
            for i in range(10):
                tracker.observe("A", 9.0 if i < violating else 0.0)
            out.append(monitor.end_tick(len(out), tracker))
        return out

    def test_quiet_run_never_breaches(self):
        spec = SloSpec.parse("p95<=8@12/3")
        tracker = LatencyTracker(threshold=spec.threshold_ticks)
        monitor = SloMonitor(spec)
        transitions = self.drive(monitor, tracker, 20, violating=0)
        assert transitions == [None] * 20
        assert monitor.burn_rates() == {3: 0.0, 12: 0.0}
        assert monitor.budget_consumed() == 0.0

    def test_sustained_violations_breach_then_recover(self):
        spec = SloSpec.parse("p95<=8@12/3")
        tracker = LatencyTracker(threshold=spec.threshold_ticks)
        monitor = SloMonitor(spec)
        # 10% violating = burn rate 2.0 against a 5% budget.
        hot = self.drive(monitor, tracker, 5, violating=1)
        assert hot[0] == "breach"  # both windows hot immediately
        assert hot[1:] == [None] * 4  # no re-fire while breached
        assert monitor.breached and monitor.breaches == 1
        # Cool the fast window: recovery fires as soon as it drains.
        cool = self.drive(monitor, tracker, 4, violating=0)
        assert "recover" in cool
        assert not monitor.breached and monitor.recoveries == 1
        assert [kind for _, kind in monitor.transitions] == ["breach", "recover"]

    def test_single_tick_blip_does_not_breach_slow_window(self):
        spec = SloSpec.parse("p95<=8@10/1")
        tracker = LatencyTracker(threshold=spec.threshold_ticks)
        monitor = SloMonitor(spec)
        # Fill the slow window with clean ticks first.
        self.drive(monitor, tracker, 10, violating=0)
        # One tick with 4/10 violating: the fast window burns at 8.0 but
        # the slow window holds 4/100 violating = burn 0.8 < 1.0 → no breach.
        blip = self.drive(monitor, tracker, 1, violating=4)
        assert blip == [None]
        assert not monitor.breached

    def test_burn_rate_is_violating_fraction_over_budget(self):
        spec = SloSpec.parse("p95<=8@4")
        tracker = LatencyTracker(threshold=spec.threshold_ticks)
        monitor = SloMonitor(spec)
        self.drive(monitor, tracker, 4, violating=2)  # 20% violating
        assert monitor.burn_rate(4) == pytest.approx(0.2 / 0.05)
        assert monitor.budget_consumed() == pytest.approx(4.0)
        with pytest.raises(ValueError):
            monitor.burn_rate(0)

    def test_idle_ticks_burn_nothing(self):
        spec = SloSpec.parse("p95<=8@4")
        monitor = SloMonitor(spec)
        tracker = LatencyTracker(threshold=spec.threshold_ticks)
        assert monitor.end_tick(0, tracker) is None
        assert monitor.burn_rate(4) == 0.0
