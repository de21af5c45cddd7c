"""Tests for streaming aggregation over join results."""

import pytest

from repro.engine.aggregates import AggregateSpec, AggregationSink


class TestAggregateSpec:
    def test_default_label(self):
        assert AggregateSpec("count").label == "count(*)"
        assert AggregateSpec("sum", "x").label == "sum(x)"

    def test_rejects_unknown_func(self):
        with pytest.raises(ValueError):
            AggregateSpec("median", "x")

    def test_rejects_missing_attr(self):
        with pytest.raises(ValueError, match="requires an attribute"):
            AggregateSpec("sum")


class TestAggregationSink:
    def make(self):
        return AggregationSink(
            [
                AggregateSpec("count"),
                AggregateSpec("sum", "x"),
                AggregateSpec("avg", "x"),
                AggregateSpec("min", "x"),
                AggregateSpec("max", "x"),
            ]
        )

    def test_values(self):
        sink = self.make()
        sink([{"x": 2}, {"x": 4}])
        sink([{"x": 9}])
        snap = sink.snapshot()
        assert snap["count(*)"] == 3
        assert snap["sum(x)"] == 15.0
        assert snap["avg(x)"] == pytest.approx(5.0)
        assert snap["min(x)"] == 2
        assert snap["max(x)"] == 9
        assert sink.results_seen == 3

    def test_empty_snapshot(self):
        snap = self.make().snapshot()
        assert snap["count(*)"] == 0
        assert snap["avg(x)"] is None
        assert snap["min(x)"] is None

    def test_rejects_no_specs(self):
        with pytest.raises(ValueError):
            AggregationSink([])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            AggregationSink([AggregateSpec("count"), AggregateSpec("count")])


class TestSinkInEngine:
    def test_executor_feeds_sink(self):
        from repro.core.assessment import SRIA
        from repro.core.bit_index import make_bit_index
        from repro.core.tuner import NullTuner
        from repro.engine.executor import AMRExecutor
        from repro.engine.parser import parse_query
        from repro.engine.resources import ResourceMeter
        from repro.engine.router import GreedyAdaptiveRouter
        from repro.storage import StateStore
        from repro.engine.tuples import StreamTuple

        q = parse_query(
            "select count(*), sum(L.v) from L, R where L.k = R.k window 6",
            schemas={"L": ["k", "v"]},
        )
        sink = AggregationSink(q.aggregates)
        stems = {
            s: StateStore(
                s,
                q.jas_for(s),
                make_bit_index(q.jas_for(s), [3]),
                q.window,
                NullTuner(SRIA(q.jas_for(s))),
            )
            for s in q.stream_names
        }
        executor = AMRExecutor(
            q,
            stems,
            GreedyAdaptiveRouter(q, explore_prob=0.0),
            ResourceMeter(capacity=1e9, memory_budget=1 << 30),
            arrival_rates={s: 1.0 for s in q.stream_names},
            output_sink=sink,
        )
        plan = {
            0: [StreamTuple("L", 0, {"k": 1, "v": 10}), StreamTuple("L", 0, {"k": 2, "v": 5})],
            1: [StreamTuple("R", 1, {"k": 1}), StreamTuple("R", 1, {"k": 2})],
        }
        stats = executor.run(3, lambda t: plan.get(t, []))
        assert stats.outputs == 2
        snap = sink.snapshot()
        assert snap["count(*)"] == 2
        assert snap["sum(l.v)"] == 15.0


class TestNonNumericAggregates:
    def test_min_max_on_strings(self):
        sink = AggregationSink([AggregateSpec("min", "tag"), AggregateSpec("max", "tag")])
        sink([{"tag": "beta"}, {"tag": "alpha"}, {"tag": "gamma"}])
        snap = sink.snapshot()
        assert snap["min(tag)"] == "alpha"
        assert snap["max(tag)"] == "gamma"

    def test_sum_rejects_non_numeric(self):
        sink = AggregationSink([AggregateSpec("sum", "tag")])
        import pytest as _pytest

        with _pytest.raises((TypeError, ValueError)):
            sink([{"tag": "oops"}])

    def test_repr(self):
        sink = AggregationSink([AggregateSpec("count")])
        assert "count(*)" in repr(sink)
