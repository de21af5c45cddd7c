"""Graceful-degradation stage semantics: shed order, expiry boundaries,
and the permanence of scan fallback — exercised directly against
:class:`~repro.engine.kernel.ShedDegradeStage` and through full runs."""

import pytest

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.executor import AMRExecutor, ExecutorConfig
from repro.engine.kernel import EngineContext, ShedDegradeStage, TickState
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import DegradationPolicy, ResourceMeter
from repro.engine.router import FixedRouter
from repro.engine.stream import StreamSchema
from repro.engine.tuples import StreamTuple
from repro.storage import StateStore


def two_stream_query(window=5):
    streams = [StreamSchema("A", ("k", "pa")), StreamSchema("B", ("k", "pb"))]
    return Query(streams, [JoinPredicate("A", "k", "B", "k")], window=window)


def make_ctx(
    *,
    window=5,
    capacity=1e9,
    memory_budget=1 << 30,
    degradation=None,
):
    query = two_stream_query(window=window)
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
    meter = ResourceMeter(capacity=capacity, memory_budget=memory_budget)
    return EngineContext(
        query=query,
        stems=stems,
        router=router,
        meter=meter,
        arrival_rates={s: 1.0 for s in query.stream_names},
        domain_bits={},
        config=ExecutorConfig(),
        degradation=degradation,
    )


def queued(stream, tick, k=1):
    values = {"k": k, "pa" if stream == "A" else "pb": 0}
    return StreamTuple(stream, tick, values)


class TestShedOrder:
    def test_shed_drops_oldest_first(self):
        """Shedding pops from the left: the oldest backlogged requests go,
        the newest survive."""
        policy = DegradationPolicy(shed_floor=2)
        ctx = make_ctx(degradation=policy)
        items = [queued("A", t) for t in range(6)]
        ctx.queue.extend(items)
        breakdown = ctx.memory_breakdown()
        stage = ShedDegradeStage()
        # A soft limit low enough that every sheddable request must go.
        stage.shed_backlog(ctx, tick=6, breakdown=breakdown, soft=0)
        assert list(ctx.queue) == items[4:]  # newest shed_floor=2 survive
        assert ctx.stats.shed_tuples == 4

    def test_shed_respects_floor_exactly(self):
        policy = DegradationPolicy(shed_floor=16)
        ctx = make_ctx(degradation=policy)
        ctx.queue.extend(queued("A", t) for t in range(16))
        before = list(ctx.queue)
        out = ShedDegradeStage().shed_backlog(
            ctx, tick=0, breakdown=ctx.memory_breakdown(), soft=0
        )
        assert list(ctx.queue) == before  # nothing sheddable at the floor
        assert out == ctx.memory_breakdown()
        assert ctx.stats.shed_tuples == 0

    def test_shed_on_empty_backlog_is_a_noop(self):
        policy = DegradationPolicy(shed_floor=0)
        ctx = make_ctx(degradation=policy)
        breakdown = ctx.memory_breakdown()
        out = ShedDegradeStage().shed_backlog(ctx, tick=0, breakdown=breakdown, soft=0)
        assert out == breakdown
        assert ctx.stats.shed_tuples == 0
        assert not ctx.queue

    def test_shed_stops_once_under_soft_limit(self):
        """Sheds the ceil of the excess, not the whole backlog."""
        policy = DegradationPolicy(shed_floor=0)
        ctx = make_ctx(degradation=policy)
        ctx.queue.extend(queued("A", t) for t in range(10))
        per = ctx.meter.params.queue_item_bytes
        breakdown = ctx.memory_breakdown()
        # Ask to free exactly three requests' worth (plus a sliver → ceil to 3).
        soft = breakdown.total - 3 * per + 1
        ShedDegradeStage().shed_backlog(ctx, tick=0, breakdown=breakdown, soft=soft)
        assert ctx.stats.shed_tuples == 3
        assert len(ctx.queue) == 7
        assert ctx.queue[0].arrived_at == 3  # 0,1,2 (the oldest) went


class TestExpiryBoundaries:
    def run_executor(self, window, plan, ticks):
        ctx = make_ctx(window=window)
        query = ctx.query

        def arrivals(tick):
            return [
                StreamTuple(s, tick, v)
                for s, v in plan.get(tick, [])
            ]

        ex = AMRExecutor(
            query,
            ctx.stems,
            ctx.router,
            ctx.meter,
            arrival_rates={s: 1.0 for s in query.stream_names},
        )
        return ex.run(ticks, arrivals)

    def test_tuple_dies_exactly_at_window_boundary(self):
        """A tuple inserted at t expires at t+window sharp: a probe arriving
        on the boundary tick no longer sees it..."""
        plan = {
            0: [("A", {"k": 1, "pa": 0})],
            3: [("B", {"k": 1, "pb": 0})],
        }
        stats = self.run_executor(window=3, plan=plan, ticks=5)
        assert stats.outputs == 0

    def test_tuple_alive_one_tick_before_boundary(self):
        """...while a probe one tick earlier still joins with it."""
        plan = {
            0: [("A", {"k": 1, "pa": 0})],
            2: [("B", {"k": 1, "pb": 0})],
        }
        stats = self.run_executor(window=3, plan=plan, ticks=5)
        assert stats.outputs == 1

    def test_window_expire_is_inclusive_on_stem(self):
        ctx = make_ctx(window=4)
        stem = ctx.stems["A"]
        stem.insert(queued("A", 0), 0)
        stem.expire(3)
        assert len(stem.window) == 1  # expiry is 0+4, not yet due at 3
        stem.expire(4)
        assert len(stem.window) == 0  # due exactly at the boundary


class TestDegradePermanence:
    def degrade_heaviest(self, ctx):
        stage = ShedDegradeStage()
        breakdown = ctx.memory_breakdown()
        return stage.degrade_indexes(ctx, tick=0, breakdown=breakdown, budget=0)

    def fill(self, ctx, n=8):
        for t in range(n):
            for s in ("A", "B"):
                ctx.stems[s].insert(queued(s, t, k=t), t)

    def test_degrade_swaps_heaviest_index_to_scan(self):
        ctx = make_ctx(degradation=DegradationPolicy())
        self.fill(ctx)
        assert all(not stem.degraded for stem in ctx.stems.values())
        before = {s: stem.index.memory_bytes for s, stem in ctx.stems.items()}
        self.degrade_heaviest(ctx)
        assert all(stem.degraded for stem in ctx.stems.values())  # budget=0 → all fall
        assert ctx.stats.degradations == 2
        for name, stem in ctx.stems.items():
            assert stem.index.memory_bytes < before[name]  # structure released
            assert type(stem.index).__name__ == "ScanIndex"

    def test_degrade_does_not_recover_when_pressure_clears(self):
        """Scan fallback is permanent: expiring every tuple (pressure gone)
        never resurrects the index structure or the tuner."""
        ctx = make_ctx(degradation=DegradationPolicy())
        self.fill(ctx)
        self.degrade_heaviest(ctx)
        for stem in ctx.stems.values():
            stem.expire(10_000)  # drain all state — pressure fully gone
        audit = TickState(tick=1)
        ShedDegradeStage().run(ctx, audit)  # plenty of budget now
        for stem in ctx.stems.values():
            assert stem.degraded  # still degraded
            assert type(stem.index).__name__ == "ScanIndex"
            assert type(stem.tuner).__name__ == "NullTuner"

    def test_degraded_engine_still_joins(self):
        ctx = make_ctx(degradation=DegradationPolicy())
        self.fill(ctx, n=2)
        self.degrade_heaviest(ctx)
        ex = AMRExecutor(
            ctx.query,
            ctx.stems,
            ctx.router,
            ctx.meter,
            arrival_rates={s: 1.0 for s in ctx.query.stream_names},
        )
        # Arrivals must stay time-ordered past the pre-filled t=0..1 tuples.
        plan = {
            2: [("A", {"k": 77, "pa": 0})],
            3: [("B", {"k": 77, "pb": 0})],
        }
        stats = ex.run(
            5, lambda t: [StreamTuple(s, t, v) for s, v in plan.get(t, [])]
        )
        assert stats.outputs == 1

    def test_already_degraded_states_are_skipped(self):
        ctx = make_ctx(degradation=DegradationPolicy())
        self.fill(ctx)
        self.degrade_heaviest(ctx)
        assert ctx.stats.degradations == 2
        self.degrade_heaviest(ctx)  # second pass finds nothing to free
        assert ctx.stats.degradations == 2


class TestStageGating:
    def test_stage_without_policy_only_measures(self):
        ctx = make_ctx(degradation=None)
        ctx.queue.extend(queued("A", t) for t in range(50))
        tick = TickState(tick=0)
        ShedDegradeStage().run(ctx, tick)
        assert len(ctx.queue) == 50
        assert tick.breakdown is not None


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
