"""Unit tests for the latency tracker: exact counts and exact quantiles."""

import pickle

import pytest

from repro.engine.latency import LatencyTracker
from repro.utils.bitops import splitmix64


def reference_quantile(values, q):
    """The order-statistic rule on a sorted list: interpolate at q*(n-1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def snapshot_of(values):
    tracker = LatencyTracker()
    for v in values:
        tracker.observe(v)
    return tracker.snapshot()


QS = (0.0, 0.5, 0.95, 0.99, 1.0)


class TestLatencyTracker:
    def test_counts_one_entry_per_distinct_latency(self):
        snap = snapshot_of([3, 0, 3, 1])
        assert snap.latencies == ((0, 1), (1, 1), (3, 2))
        assert snap.count == 4
        assert snap.mean == pytest.approx(7 / 4)

    def test_shed_and_unfinished_are_not_latencies(self):
        t = LatencyTracker()
        t.observe(2)
        t.observe_shed(3)
        t.observe_unfinished(5)
        t.observe_unfinished(9)
        t.observe_unfinished(4)
        snap = t.snapshot()
        assert (snap.count, snap.shed, snap.unfinished) == (1, 3, 3)
        assert snap.unfinished_max_wait == 9
        assert snap.quantile(1.0) == 2


class TestExactQuantile:
    def test_empty_is_none(self):
        snap = LatencyTracker().snapshot()
        for q in QS:
            assert snap.quantile(q) is None
        assert snap.mean is None

    def test_single_value(self):
        snap = snapshot_of([7])
        assert [snap.quantile(q) for q in QS] == [7] * len(QS)

    def test_ties(self):
        values = [4, 4, 4, 1, 9, 9]
        snap = snapshot_of(values)
        for q in QS:
            assert snap.quantile(q) == reference_quantile(values, q), q

    @pytest.mark.parametrize("n", [2, 3, 20, 101, 1000])
    def test_matches_the_sorted_list_reference(self, n):
        values = [splitmix64(i) % 97 for i in range(n)]
        snap = snapshot_of(values)
        for q in QS:
            assert snap.quantile(q) == reference_quantile(values, q), q

    def test_rejects_out_of_range_q(self):
        snap = snapshot_of([1])
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                snap.quantile(q)


class TestLatencySnapshot:
    def test_snapshot_is_frozen_and_picklable(self):
        t = LatencyTracker()
        t.observe(1)
        t.observe_unfinished(3)
        snap = t.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        with pytest.raises(AttributeError):
            snap.shed = 0

    def test_to_records_is_one_aggregate_row(self):
        t = LatencyTracker()
        for v in (0, 1, 2, 3, 10):
            t.observe(v)
        t.observe_shed(2)
        t.observe_unfinished(12)
        (record,) = t.snapshot().to_records()
        assert record == {
            "record": "latency",
            "requests": 5,
            "p50": 2.0,
            "p95": pytest.approx(8.6),
            "p99": pytest.approx(9.72),
            "mean": 3.2,
            "shed": 2,
            "unfinished": 1,
            "unfinished_max_wait": 12,
        }
