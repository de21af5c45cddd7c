"""Edge-case tests for the route/probe stage's probe columns.

The ``probe`` rule of ``tests/storage/test_store_machine.py`` holds
``probe_batch`` equal to the probe loop on the store; this suite pins the awkward
boundaries one at a time, at the index and through the engine: empty
columns, columns of one and a run spanning a window-expiry boundary.  The
engine cases compare
the pipeline against itself with every state's ``probe_batch`` shadowed by
the per-row ``probe`` loop — the reference the column must reproduce.
"""

from __future__ import annotations

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.executor import AMRExecutor
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import ResourceMeter
from repro.engine.router import FixedRouter
from repro.engine.stream import StreamSchema
from repro.engine.tuples import StreamTuple
from repro.experiments.golden import stats_fingerprint
from repro.indexes.scan_index import ScanIndex
from repro.storage import StateStore


def clique_query(window=5):
    """Three streams joined pairwise on ``k``: second hops carry several
    partials, so they run as probe columns."""
    streams = [StreamSchema(s, ("k", f"p{s.lower()}")) for s in "ABC"]
    preds = [JoinPredicate(a, "k", b, "k") for a, b in ("AB", "BC", "AC")]
    return Query(streams, preds, window=window)


def make_executor(window=5, *, sink=None):
    """A tiny three-stream engine."""
    query = clique_query(window)
    stems = {}
    for s in query.stream_names:
        jas = query.jas_for(s)
        stems[s] = StateStore(
            s,
            jas,
            make_bit_index(jas, [4] * len(jas)),
            query.window,
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
        output_sink=sink,
    )


def arrivals_from(plan):
    def gen(tick):
        return [StreamTuple(s, tick, v) for s, v in plan.get(tick, [])]

    return gen


def join_plan(ticks, per_tick=3):
    """All streams, overlapping keys, every tick — guarantees matches."""
    return {
        t: [
            (s, {"k": i % 2, f"p{s.lower()}": i})
            for s in "ABC"
            for i in range(per_tick)
        ]
        for t in range(ticks)
    }


def run_pair(ticks, plan, window=5):
    """The same workload with every column probed by the ``probe`` loop,
    then by ``probe_batch`` (which must really see multi-row columns)."""
    results = []
    widths = []
    for per_row in (True, False):
        sink = []
        ex = make_executor(window, sink=sink.extend)
        for stem in ex.stems.values():

            def column(ap, rows, _stem=stem, _batch=stem.probe_batch, _per_row=per_row):
                if _per_row:
                    return [_stem.probe(ap, dict(zip(ap.attributes, row))) for row in rows]
                widths.append(len(rows))
                return _batch(ap, rows)

            stem.probe_batch = column
        stats = ex.run(ticks, arrivals_from(plan))
        results.append((ex, stats, [result.sources for result in sink]))
    # Every hop is a column now, first hops of one row included.
    assert widths and max(widths) > 1, "no hop ran as a multi-row column; the case is vacuous"
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
        [out_b] = batched.search_batch(ap3("A"), [(1,)])
        assert out_b.matches == out_s.matches
        assert out_b.buckets_visited == out_s.buckets_visited
        assert out_b.tuples_examined == out_s.tuples_examined
        assert out_b.used_full_scan == out_s.used_full_scan
        assert batched.accountant == serial.accountant


# --------------------------------------------------------------------- #
# batch spanning a window-expiry boundary


class TestWindowExpiryBoundary:
    def test_batch_spanning_expiry_matches_serial(self):
        # window=2 over 8 ticks: most of the run probes states that expired
        # tuples this tick.
        (s_ex, s_stats, s_out), (b_ex, b_stats, b_out) = run_pair(
            8, join_plan(8), window=2
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
