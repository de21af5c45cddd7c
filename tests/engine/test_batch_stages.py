"""Edge-case tests for probe columns and their chunk width (kernel.batch).

The differential suite proves whole-run bit-identity statistically; this
suite pins the awkward boundaries one at a time: empty columns, columns of
one, a run spanning a window-expiry boundary, and a tick's arrivals larger
than a count-window's capacity (eviction-before-insert must hold per
element).
"""

from __future__ import annotations

import pytest

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.executor import AMRExecutor
from repro.engine.kernel import (
    DEFAULT_BATCH_SIZE,
    BatchRouteProbeStage,
    RouteProbeStage,
    batched_stages,
    default_stages,
)
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import ResourceMeter
from repro.engine.router import FixedRouter
from repro.engine.stem import SteM
from repro.engine.stream import StreamSchema
from repro.engine.tuples import StreamTuple
from repro.engine.window import CountWindow
from repro.experiments.golden import stats_fingerprint
from repro.indexes.scan_index import ScanIndex
from repro.storage import StateStore


def two_stream_query(window=5):
    streams = [StreamSchema("A", ("k", "pa")), StreamSchema("B", ("k", "pb"))]
    return Query(streams, [JoinPredicate("A", "k", "B", "k")], window=window)


def make_executor(window=5, *, batch_size=None, sink=None, stem_window=None):
    """A tiny two-stream engine; ``stem_window`` is a factory for a
    per-state window object (e.g. ``lambda: CountWindow(3)``) independent
    of the query's time window."""
    query = two_stream_query(window)
    stems = {}
    for s in query.stream_names:
        jas = query.jas_for(s)
        stems[s] = SteM(
            s,
            jas,
            make_bit_index(jas, [4] * len(jas)),
            stem_window() if stem_window is not None else query.window,
            NullTuner(SRIA(jas)),
        )
    router = FixedRouter(
        {s: [t for t in query.stream_names if t != s] for s in query.stream_names}
    )
    meter = ResourceMeter(capacity=1e9, memory_budget=1 << 30)
    return AMRExecutor(
        query,
        stems,
        router,
        meter,
        arrival_rates={s: 1.0 for s in query.stream_names},
        batch_size=batch_size,
        output_sink=sink,
    )


def arrivals_from(plan):
    def gen(tick):
        return [StreamTuple(s, tick, v) for s, v in plan.get(tick, [])]

    return gen


def join_plan(ticks, per_tick=3):
    """Both streams, overlapping keys, every tick — guarantees matches."""
    return {
        t: [("A", {"k": i % 2, "pa": i}) for i in range(per_tick)]
        + [("B", {"k": i % 2, "pb": i}) for i in range(per_tick)]
        for t in range(ticks)
    }


def run_pair(ticks, plan, window=5, *, batch_size, stem_window=None):
    """The same workload through the serial and the batched pipeline."""
    results = []
    for bs in (None, batch_size):
        sink = []
        ex = make_executor(window, batch_size=bs, sink=sink.extend, stem_window=stem_window)
        stats = ex.run(ticks, arrivals_from(plan))
        results.append((ex, stats, sink))
    return results


# --------------------------------------------------------------------- #
# empty batch through the index layer


class TestEmptyBatch:
    def test_search_batch_empty_is_empty_and_free(self, jas3, ap3):
        for index in (make_bit_index(jas3, [2, 2, 2]), ScanIndex(jas3)):
            before = index.accountant.snapshot()
            assert index.search_batch(ap3("A"), []) == []
            assert index.accountant == before

    def test_probe_batch_empty_is_empty_and_free(self, jas3, ap3):
        store = StateStore("S", jas3, ScanIndex(jas3), window=5)
        store.insert(StreamTuple("S", 0, {"A": 1, "B": 2, "C": 3}), 0)
        before = store.index.accountant.snapshot()
        assert store.probe_batch(ap3("A"), []) == []
        assert store.index.accountant == before


# --------------------------------------------------------------------- #
# batch of one


class TestBatchOfOne:
    def test_search_batch_of_one_equals_serial_search(self, jas3, ap3):
        def populated(index):
            for i in range(8):
                index.insert(StreamTuple("S", i, {"A": i % 3, "B": 2, "C": 3}))
            return index

        serial = populated(make_bit_index(jas3, [2, 2, 2]))
        batched = populated(make_bit_index(jas3, [2, 2, 2]))
        out_s = serial.search(ap3("A"), {"A": 1})
        [out_b] = batched.search_batch(ap3("A"), [{"A": 1}])
        assert out_b.matches == out_s.matches
        assert out_b.buckets_visited == out_s.buckets_visited
        assert out_b.tuples_examined == out_s.tuples_examined
        assert out_b.used_full_scan == out_s.used_full_scan
        assert batched.accountant == serial.accountant

    def test_pipeline_at_batch_size_one(self):
        (_, s_stats, s_out), (_, b_stats, b_out) = run_pair(
            6, join_plan(6), batch_size=1
        )
        assert stats_fingerprint(b_stats) == stats_fingerprint(s_stats)
        assert b_out == s_out


# --------------------------------------------------------------------- #
# batch spanning a window-expiry boundary


class TestWindowExpiryBoundary:
    def test_batch_spanning_expiry_matches_serial(self):
        # window=2 over 8 ticks: most of the run probes states that expired
        # tuples this tick; batch size exceeds any hop's probe column.
        (s_ex, s_stats, s_out), (b_ex, b_stats, b_out) = run_pair(
            8, join_plan(8), window=2, batch_size=64
        )
        deletes = sum(st.index.accountant.deletes for st in b_ex.stems.values())
        assert deletes > 0, "no expiry happened; the case is vacuous"
        assert stats_fingerprint(b_stats) == stats_fingerprint(s_stats)
        assert b_out == s_out
        assert b_ex.meter.total_spent == s_ex.meter.total_spent
        for name in s_ex.stems:
            assert (
                b_ex.stems[name].index.accountant == s_ex.stems[name].index.accountant
            )


# --------------------------------------------------------------------- #
# batch larger than a count-window's capacity


class TestCountWindowCapacity:
    CAPACITY = 3

    def test_eviction_precedes_insert_per_element(self):
        """A 12-tuple arrival batch through a capacity-3 count window must
        evict-then-insert one element at a time: the index never holds
        capacity + 1 tuples, even transiently inside the batch."""
        ex = make_executor(
            batch_size=64, stem_window=lambda: CountWindow(self.CAPACITY)
        )
        peaks = {}
        for name, stem in ex.stems.items():
            original = stem.index.insert
            sizes = []

            def spy(item, _orig=original, _sizes=sizes, _stem=stem):
                _orig(item)
                _sizes.append(_stem.index.size)

            stem.index.insert = spy
            peaks[name] = sizes

        plan = {0: [("A", {"k": i % 2, "pa": i}) for i in range(12)]}
        ex.run(1, arrivals_from(plan))

        assert len(peaks["A"]) == 12  # every element actually inserted
        assert max(peaks["A"]) == self.CAPACITY
        assert ex.stems["A"].size == self.CAPACITY

    def test_overflowing_batch_matches_serial(self):
        plan = {
            t: [("A", {"k": i % 2, "pa": i}) for i in range(8)]
            + [("B", {"k": i % 2, "pb": i}) for i in range(8)]
            for t in range(4)
        }
        (_, s_stats, s_out), (_, b_stats, b_out) = run_pair(
            4, plan, batch_size=64, stem_window=lambda: CountWindow(self.CAPACITY)
        )
        assert stats_fingerprint(b_stats) == stats_fingerprint(s_stats)
        assert b_out == s_out


# --------------------------------------------------------------------- #
# stage construction


class TestBatchStageConstruction:
    def test_batched_stages_shape(self):
        stages = batched_stages()
        default = default_stages()
        assert isinstance(stages[2], BatchRouteProbeStage)
        assert stages[2].batch_size == DEFAULT_BATCH_SIZE
        # One pipeline: only the route/probe stage's chunk width differs.
        assert type(default[2]) is RouteProbeStage and default[2].batch_size is None
        assert [type(s) for i, s in enumerate(stages) if i != 2] == [
            type(s) for i, s in enumerate(default) if i != 2
        ]
        assert len(stages) == 9

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_rejects_non_positive_batch_size(self, bad):
        with pytest.raises(ValueError, match="batch_size"):
            BatchRouteProbeStage(batch_size=bad)

    @pytest.mark.parametrize("bad", [2.5, "64", None, True])
    def test_rejects_non_int_batch_size(self, bad):
        with pytest.raises(TypeError, match="batch_size"):
            BatchRouteProbeStage(batch_size=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_executor_rejects_bad_batch_size(self, bad):
        with pytest.raises(ValueError, match="batch_size"):
            make_executor(batch_size=bad)
