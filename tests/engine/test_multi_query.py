"""Tests for multi-query execution over shared states."""

import pytest

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.multi_query import MultiQueryExecutor, QuerySet
from repro.engine.parser import parse_query
from repro.engine.resources import ResourceMeter
from repro.engine.router import GreedyAdaptiveRouter
from repro.engine.tuples import StreamTuple
from repro.storage import StateStore


def two_queries():
    """Q1 joins A-B on k; Q2 joins A-C on j.  A is shared."""
    q1 = parse_query(
        "select A.*, B.* from A, B where A.k = B.k window 5",
        schemas={"A": ["k", "j"]},
        name="q1",
    )
    q2 = parse_query(
        "select A.*, C.* from A, C where A.j = C.j window 8",
        schemas={"A": ["k", "j"]},
        name="q2",
    )
    return q1, q2


def build_executor(qs, capacity=1e9, memory_budget=1 << 30, config=None):
    stems = {}
    for stream in qs.stream_names:
        jas = qs.union_jas(stream)
        stems[stream] = StateStore(
            stream,
            jas,
            make_bit_index(jas, [3] * len(jas)),
            qs.max_window(stream),
            NullTuner(SRIA(jas)),
        )
    routers = {q.name: GreedyAdaptiveRouter(q, explore_prob=0.0, seed=0) for q in qs}
    return MultiQueryExecutor(
        qs,
        stems,
        routers,
        ResourceMeter(capacity=capacity, memory_budget=memory_budget),
        arrival_rates={s: 1.0 for s in qs.stream_names},
        config=config,
    )


class TestQuerySet:
    def test_union_jas(self):
        qs = QuerySet(two_queries())
        assert list(qs.union_jas("A").names) == ["j", "k"]
        assert list(qs.union_jas("B").names) == ["k"]

    def test_stream_names(self):
        qs = QuerySet(two_queries())
        assert qs.stream_names == ("A", "B", "C")

    def test_queries_for(self):
        qs = QuerySet(two_queries())
        assert len(qs.queries_for("A")) == 2
        assert len(qs.queries_for("B")) == 1

    def test_max_window(self):
        qs = QuerySet(two_queries())
        assert qs.max_window("A") == 8

    def test_lift_pattern(self):
        qs = QuerySet(two_queries())
        q1, _ = qs.queries
        ap, _bindings = q1.probe_spec({"B"}, "A")
        lifted = qs.lift_pattern("A", ap)
        assert lifted.jas == qs.union_jas("A")
        assert lifted.attributes == ("k",)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QuerySet([])

    def test_rejects_duplicate_names(self):
        q1, _ = two_queries()
        with pytest.raises(ValueError, match="duplicate query names"):
            QuerySet([q1, q1])


class TestMultiQueryExecution:
    def test_each_query_produces_independently(self):
        qs = QuerySet(two_queries())
        ex = build_executor(qs)
        plan = {
            0: [StreamTuple("A", 0, {"k": 1, "j": 9})],
            1: [StreamTuple("B", 1, {"k": 1})],  # q1 match
            2: [StreamTuple("C", 2, {"j": 9})],  # q2 match
        }
        stats = ex.run(4, lambda t: plan.get(t, []))
        assert ex.per_query_outputs == {"q1": 1, "q2": 1}
        assert stats.outputs == 2

    def test_per_query_windows_respected(self):
        """The shared A-state holds tuples for q2's longer window, but q1
        probes must not see A-tuples older than q1's own window."""
        qs = QuerySet(two_queries())
        ex = build_executor(qs)
        plan = {
            0: [StreamTuple("A", 0, {"k": 1, "j": 9})],
            6: [StreamTuple("B", 6, {"k": 1})],  # q1 window (5) has passed
            7: [StreamTuple("C", 7, {"j": 9})],  # q2 window (8) still open
        }
        ex.run(9, lambda t: plan.get(t, []))
        assert ex.per_query_outputs == {"q1": 0, "q2": 1}

    def test_shared_state_single_insert(self):
        qs = QuerySet(two_queries())
        ex = build_executor(qs)
        plan = {0: [StreamTuple("A", 0, {"k": 1, "j": 2})]}
        ex.run(1, lambda t: plan.get(t, []))
        assert ex.stems["A"].size == 1  # one state, one copy

    def test_mixed_patterns_reach_shared_assessor(self):
        """Probes from both queries land in A's single assessment table."""
        qs = QuerySet(two_queries())
        ex = build_executor(qs)
        plan = {
            0: [StreamTuple("B", 0, {"k": 1}), StreamTuple("C", 0, {"j": 2})],
            1: [StreamTuple("B", 1, {"k": 3}), StreamTuple("C", 1, {"j": 4})],
        }
        ex.run(2, lambda t: plan.get(t, []))
        seen = set(ex.stems["A"].tuner.assessor.frequencies())
        attrs = {ap.attributes for ap in seen}
        assert ("k",) in attrs and ("j",) in attrs

    def test_no_duplicate_results(self):
        qs = QuerySet(two_queries())
        ex = build_executor(qs)
        plan = {0: [StreamTuple("A", 0, {"k": 1, "j": 9}), StreamTuple("B", 0, {"k": 1})]}
        ex.run(2, lambda t: plan.get(t, []))
        assert ex.per_query_outputs["q1"] == 1

    def test_memory_death_recorded(self):
        qs = QuerySet(two_queries())
        ex = build_executor(qs, capacity=1e-6, memory_budget=900)
        plan = {t: [StreamTuple("A", t, {"k": t, "j": t})] for t in range(60)}
        stats = ex.run(60, lambda t: plan.get(t, []))
        assert stats.died_at is not None

    def test_validation_errors(self):
        qs = QuerySet(two_queries())
        stems = {}
        with pytest.raises(ValueError, match="no SteM"):
            MultiQueryExecutor(
                qs, stems, {}, ResourceMeter(), arrival_rates={}
            )

    def test_wrong_jas_rejected(self):
        qs = QuerySet(two_queries())
        ex = build_executor(qs)  # valid stems
        bad_stems = dict(ex.stems)
        jas_b = qs.union_jas("B")
        bad_stems["A"] = StateStore("A", jas_b, make_bit_index(jas_b, [2]), 5)
        with pytest.raises(ValueError, match="union JAS"):
            MultiQueryExecutor(
                qs,
                bad_stems,
                ex.routers,
                ResourceMeter(),
                arrival_rates={s: 1.0 for s in qs.stream_names},
            )

    def test_missing_router_rejected(self):
        qs = QuerySet(two_queries())
        ex = build_executor(qs)
        with pytest.raises(ValueError, match="no router"):
            MultiQueryExecutor(
                qs,
                ex.stems,
                {"q1": ex.routers["q1"]},
                ResourceMeter(),
                arrival_rates={s: 1.0 for s in qs.stream_names},
            )
