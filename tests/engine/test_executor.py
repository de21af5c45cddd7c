"""Tests for the AMR execution loop."""

import pytest

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.executor import AMRExecutor, ExecutorConfig
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import ResourceMeter
from repro.engine.router import FixedRouter
from repro.engine.stream import StreamSchema
from repro.engine.tracing import EventLog
from repro.engine.tuples import StreamTuple
from repro.indexes.scan_index import ScanIndex
from repro.storage import StateStore


def two_stream_query(window=5):
    streams = [StreamSchema("A", ("k", "pa")), StreamSchema("B", ("k", "pb"))]
    return Query(streams, [JoinPredicate("A", "k", "B", "k")], window=window)


def make_executor(
    query=None, *, capacity=1e9, memory_budget=1 << 30, index_bits=4, config=None, event_log=None
):
    query = query if query is not None else two_stream_query()
    stems = {}
    for s in query.stream_names:
        jas = query.jas_for(s)
        stems[s] = StateStore(
            s,
            jas,
            make_bit_index(jas, [index_bits] * len(jas)),
            query.window,
            NullTuner(SRIA(jas)),
        )
    router = FixedRouter({s: [t for t in query.stream_names if t != s] for s in query.stream_names})
    meter = ResourceMeter(capacity=capacity, memory_budget=memory_budget)
    return AMRExecutor(
        query,
        stems,
        router,
        meter,
        arrival_rates={s: 1.0 for s in query.stream_names},
        config=config,
        event_log=event_log,
    )


def arrivals_from(plan):
    """plan: dict tick -> list of (stream, values)."""

    def gen(tick):
        return [StreamTuple(s, tick, v) for s, v in plan.get(tick, [])]

    return gen


class TestJoinSemantics:
    def test_matching_pair_produces_one_output(self):
        ex = make_executor()
        plan = {0: [("A", {"k": 1, "pa": 0})], 1: [("B", {"k": 1, "pb": 0})]}
        stats = ex.run(3, arrivals_from(plan))
        assert stats.outputs == 1

    def test_no_duplicate_outputs_same_tick(self):
        """Two same-tick matching tuples join exactly once (tie-break)."""
        ex = make_executor()
        plan = {0: [("A", {"k": 1, "pa": 0}), ("B", {"k": 1, "pb": 0})]}
        stats = ex.run(2, arrivals_from(plan))
        assert stats.outputs == 1

    def test_non_matching_pair_produces_nothing(self):
        ex = make_executor()
        plan = {0: [("A", {"k": 1, "pa": 0})], 1: [("B", {"k": 2, "pb": 0})]}
        stats = ex.run(3, arrivals_from(plan))
        assert stats.outputs == 0

    def test_window_expiry_prevents_stale_joins(self):
        ex = make_executor(two_stream_query(window=3))
        plan = {0: [("A", {"k": 1, "pa": 0})], 4: [("B", {"k": 1, "pb": 0})]}
        stats = ex.run(6, arrivals_from(plan))
        assert stats.outputs == 0  # A expired at tick 3

    def test_cartesian_of_matches(self):
        ex = make_executor()
        plan = {
            0: [("A", {"k": 1, "pa": i}) for i in range(3)],
            1: [("B", {"k": 1, "pb": 0}), ("B", {"k": 1, "pb": 1})],
        }
        stats = ex.run(3, arrivals_from(plan))
        assert stats.outputs == 6  # 3 A-tuples x 2 B-tuples

    def test_outputs_match_oracle_on_random_data(self):
        """Engine output count equals a brute-force window-join count."""
        import itertools
        import random

        rng = random.Random(5)
        window = 4
        ex = make_executor(two_stream_query(window=window))
        plan = {}
        all_tuples = []
        for t in range(12):
            plan[t] = []
            for s in ("A", "B"):
                for _ in range(rng.randrange(3)):
                    v = {"k": rng.randrange(3), "pa" if s == "A" else "pb": rng.random()}
                    plan[t].append((s, v))
                    all_tuples.append((s, t, v))
        stats = ex.run(14, arrivals_from(plan))
        expected = 0
        for (s1, t1, v1), (s2, t2, v2) in itertools.combinations(all_tuples, 2):
            if s1 == s2 or v1["k"] != v2["k"]:
                continue
            # joinable iff each is alive when the younger is processed
            older, younger = min(t1, t2), max(t1, t2)
            if older + window > younger:
                expected += 1
        assert stats.outputs == expected


class TestBackpressure:
    def test_backlog_accumulates_when_capacity_tiny(self):
        ex = make_executor(capacity=1e-6)
        plan = {t: [("A", {"k": t, "pa": 0})] for t in range(5)}
        ex.run(5, arrivals_from(plan))
        assert ex.backlog > 0

    def test_memory_death_recorded_not_raised(self):
        ex = make_executor(capacity=1e-6, memory_budget=1_000)
        plan = {t: [("A", {"k": t, "pa": 0}), ("B", {"k": -1, "pb": 0})] for t in range(50)}
        stats = ex.run(50, arrivals_from(plan))
        assert stats.died_at is not None
        assert stats.death_reason is not None
        assert stats.samples[-1].tick == stats.died_at

    def test_dead_run_stops_sampling(self):
        ex = make_executor(capacity=1e-6, memory_budget=1_000)
        plan = {t: [("A", {"k": t, "pa": 0})] for t in range(100)}
        stats = ex.run(100, arrivals_from(plan))
        assert stats.samples[-1].tick < 99


class TestAccounting:
    def test_cost_spent_accumulates(self):
        ex = make_executor()
        plan = {0: [("A", {"k": 1, "pa": 0})], 1: [("B", {"k": 1, "pb": 0})]}
        ex.run(3, arrivals_from(plan))
        assert ex.meter.total_spent > 0

    def test_probe_statistics_recorded(self):
        ex = make_executor()
        plan = {0: [("A", {"k": 1, "pa": 0})], 1: [("B", {"k": 1, "pb": 0})]}
        stats = ex.run(3, arrivals_from(plan))
        assert stats.probes == 2  # one per source tuple (2-way query)
        assert stats.source_tuples == 2
        # each stem's assessor saw its probes
        total_recorded = sum(
            ex.stems[s].tuner.assessor.n_requests for s in ("A", "B")
        )
        assert total_recorded == 2

    def test_max_fanout_ends_a_request_past_the_cap(self):
        cfg = ExecutorConfig(max_fanout=2)
        log = EventLog()
        ex = make_executor(config=cfg, event_log=log)
        plan = {
            0: [("A", {"k": 1, "pa": i}) for i in range(5)],
            1: [("B", {"k": 1, "pb": 0})],
        }
        stats = ex.run(3, arrivals_from(plan))
        assert stats.outputs == 0  # 5 partials > 2: none survive
        assert [(e.tick, e.kind, e.stream, dict(e.detail)) for e in log] == [
            (1, "fanout_cut", "A", {"partials": 5, "cap": 2})
        ]

    def test_a_one_row_hop_past_the_cap_counts_every_match_and_keeps_none(self):
        """A one-row hop cuts as a column does: after the count, so the run
        stats and the estimate see every match, and the request keeps no
        partials."""
        from repro.engine.kernel import RouteProbeStage
        from repro.engine.stats import SelectivityEstimator

        ex = make_executor(config=ExecutorConfig(max_fanout=2))
        stage = next(s for s in ex.kernel.stages if isinstance(s, RouteProbeStage))
        hops = []
        probe_hop = stage._probe_hop

        def spy(ctx, item, tick, target, joined, partials, observe_content):
            extended = probe_hop(ctx, item, tick, target, joined, partials, observe_content)
            hops.append((len(partials), len(extended)))
            return extended

        stage._probe_hop = spy
        plan = {
            0: [("A", {"k": 1, "pa": i}) for i in range(5)],
            1: [("B", {"k": 1, "pb": 0})],
        }
        stats = ex.run(3, arrivals_from(plan))
        assert hops == [(1, 0)] * 6
        assert (stats.outputs, stats.probes, stats.matches) == (0, 6, 5)
        estimator = ex.context.estimator
        ap, _ = ex.context.query.probe_spec({"B"}, "A")
        reference = SelectivityEstimator(alpha=estimator.alpha, initial=estimator.initial)
        reference.observe_many("A", ap.mask, [5])
        assert estimator.expected_matches("A", ap.mask) == reference.expected_matches(
            "A", ap.mask
        )

    def test_rejects_missing_stem(self):
        q = two_stream_query()
        jas = q.jas_for("A")
        stems = {"A": StateStore("A", jas, ScanIndex(jas), q.window)}
        with pytest.raises(ValueError, match="no SteM"):
            AMRExecutor(
                q,
                stems,
                FixedRouter({}),
                ResourceMeter(),
                arrival_rates={"A": 1.0},
            )

    def test_rejects_bad_duration(self):
        ex = make_executor()
        with pytest.raises(ValueError):
            ex.run(0, arrivals_from({}))
