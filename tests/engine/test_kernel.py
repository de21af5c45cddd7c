"""Tests for the staged engine kernel (context, stages, drain order, facade)."""

from pathlib import Path

import pytest

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.executor import AMRExecutor, ExecutorConfig
from repro.engine.kernel import (
    ArrivalStage,
    AuditStage,
    EngineContext,
    EngineKernel,
    ExpiryStage,
    RouteProbeStage,
    TickState,
    default_stages,
)
from repro.engine.query import JoinPredicate, Query
from repro.engine.metrics import MetricsRegistry
from repro.engine.resources import ResourceMeter
from repro.engine.router import FixedRouter
from repro.engine.stream import StreamSchema
from repro.engine.tuples import StreamTuple
from repro.indexes.base import CostParams
from repro.storage import StateStore

ENGINE_DIR = Path(__file__).resolve().parents[2] / "src" / "repro" / "engine"


def two_stream_query(window=5):
    streams = [StreamSchema("A", ("k", "pa")), StreamSchema("B", ("k", "pb"))]
    return Query(streams, [JoinPredicate("A", "k", "B", "k")], window=window)


def make_parts(query=None, *, capacity=1e9, memory_budget=1 << 30):
    query = query if query is not None else two_stream_query()
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
    return query, stems, router, meter


def make_executor(**kwargs):
    query, stems, router, meter = make_parts()
    return AMRExecutor(
        query,
        stems,
        router,
        meter,
        arrival_rates={s: 1.0 for s in query.stream_names},
        **kwargs,
    )


def arrivals_from(plan):
    def gen(tick):
        return [StreamTuple(s, tick, v) for s, v in plan.get(tick, [])]

    return gen


class TestSpendInvariant:
    """The _spend invariant holds *by construction*: exactly one call site
    touches the meter, and it attributes the identical float."""

    def kernel_sources(self):
        files = [ENGINE_DIR / "executor.py"]
        files += sorted((ENGINE_DIR / "kernel").glob("*.py"))
        return {f: f.read_text() for f in files}

    def test_meter_spend_called_only_in_context(self):
        hits = {
            f.name: src.count("meter.spend(")
            for f, src in self.kernel_sources().items()
            if "meter.spend(" in src
        }
        assert hits == {"context.py": 1}, (
            f"meter.spend must be called only by EngineContext.spend, found {hits}"
        )

    def test_metrics_charge_called_only_in_context(self):
        hits = {
            f.name: src.count("metrics.charge(")
            for f, src in self.kernel_sources().items()
            if "metrics.charge(" in src
        }
        assert hits == {"context.py": 1}, (
            f"metrics.charge must be paired with meter.spend in EngineContext.spend, found {hits}"
        )


class TestEngineContext:
    def test_rejects_missing_stem(self):
        query, stems, router, meter = make_parts()
        del stems["B"]
        with pytest.raises(ValueError, match="no SteM configured"):
            EngineContext(
                query=query,
                stems=stems,
                router=router,
                meter=meter,
                arrival_rates={},
                domain_bits={},
                config=ExecutorConfig(),
            )

    def test_spend_moves_clock_and_attribution_identically(self):
        from repro.engine.metrics import MetricsRegistry

        query, stems, router, meter = make_parts()
        registry = MetricsRegistry()
        ctx = EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates={},
            domain_bits={},
            config=ExecutorConfig(),
            metrics=registry,
        )
        meter.start_tick()
        for cost in (0.1, 0.2, 0.7, 12.5):
            ctx.spend(cost, "index", stream="A")
        assert registry.cost_total == meter.total_spent  # bit-for-bit

    def test_backlog_matches_queue(self):
        query, stems, router, meter = make_parts()
        ctx = EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates={},
            domain_bits={},
            config=ExecutorConfig(),
        )
        ctx.queue.append(StreamTuple("A", 0, {"k": 1, "pa": 0}))
        assert len(ctx.queue) == 1
        assert ctx.memory_breakdown().backlog == meter.params.queue_item_bytes


class TestBareKernel:
    """The kernel runs without the facade — context + stages is a full engine."""

    def test_bare_kernel_matches_facade(self):
        plan = {
            0: [("A", {"k": 1, "pa": 0})],
            1: [("B", {"k": 1, "pb": 0}), ("A", {"k": 2, "pa": 1})],
            3: [("B", {"k": 2, "pb": 1})],
        }
        ex = make_executor()
        facade_stats = ex.run(5, arrivals_from(plan))

        query, stems, router, meter = make_parts()
        ctx = EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates={s: 1.0 for s in query.stream_names},
            domain_bits={},
            config=ExecutorConfig(),
        )
        kernel_stats = EngineKernel(ctx).run(5, arrivals_from(plan))
        assert kernel_stats.outputs == facade_stats.outputs == 2
        assert kernel_stats.probes == facade_stats.probes
        assert kernel_stats.samples == facade_stats.samples

    def test_custom_pipeline_subset(self):
        """A pipeline without tuning/faults/degradation still joins."""
        query, stems, router, meter = make_parts()
        ctx = EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates={},
            domain_bits={},
            config=ExecutorConfig(),
        )
        stages = (ArrivalStage(), ExpiryStage(), RouteProbeStage(), AuditStage())
        plan = {0: [("A", {"k": 1, "pa": 0})], 1: [("B", {"k": 1, "pb": 0})]}
        stats = EngineKernel(ctx, stages).run(3, arrivals_from(plan))
        assert stats.outputs == 1
        assert stats.tuning_rounds == 0

    def test_bare_kernel_hosts_invariant_checker(self):
        """A caller that owns the loop checks the context between steps."""
        from tests.faults import InvariantChecker

        query, stems, router, meter = make_parts()
        checker = InvariantChecker()
        ctx = EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates={},
            domain_bits={},
            config=ExecutorConfig(),
        )
        kernel = EngineKernel(ctx)
        arrivals = arrivals_from({0: [("A", {"k": 1, "pa": 0})]})
        for t in range(4):
            assert not kernel.step(t, arrivals(t)).died
            checker.check(ctx, t)
        kernel.finish(3)
        assert checker.ticks_checked == 4


class RowAtATimeStage(RouteProbeStage):
    """The capped hop as the engine ran it before it probed in chunks — the
    reference: one probe per partial, stopping inside the matches of the
    row that reaches ``max_fanout``."""

    def _probe_hop(self, ctx, item, target, joined, partials, observe_content):
        ap, sources = ctx.query.probe_row_spec(joined, target)
        stem = ctx.stems[target]
        max_fanout = ctx.config.max_fanout
        counts, next_partials = [], []
        for partial in partials:
            row = tuple(partial[joined.index(stream)][attr] for stream, attr in sources)
            matches = [
                m
                for m in stem.probe_batch(ap, [row])[0].matches
                if (m.arrived_at, m.stream) < (item.arrived_at, item.stream)
            ]
            counts.append(len(matches))
            for match in matches:
                next_partials.append(partial + (match,))
                if len(next_partials) >= max_fanout:
                    break
            if len(next_partials) >= max_fanout:
                break
        ctx.stats.probes += len(counts)
        ctx.stats.matches += sum(counts)
        ctx.estimator.observe_many(target, ap.mask, counts)
        return next_partials


class TestProbeColumn:
    """A route hop runs as one probe column unless the fanout cap could
    bite; then it runs in chunks only whose last row can reach the cap."""

    @staticmethod
    def run_clique(max_fanout, *, n_b=3, c_keys=(1, 1, 1, 1), reference=False):
        """Three streams joined on ``k``: ``n_b`` B tuples (``k=1``) and one
        C tuple per entry of ``c_keys`` at tick 0, one A tuple (``k=1``) at
        tick 1 routed A -> B -> C.  Returns the run's observables and the
        probe calls its second hop made on C's state."""
        streams = [StreamSchema(s, ("k", f"p{s.lower()}")) for s in "ABC"]
        preds = [JoinPredicate(a, "k", b, "k") for a, b in ("AB", "BC", "AC")]
        query, stems, router, meter = make_parts(Query(streams, preds, window=5))
        sink = []
        stages = None
        if reference:
            stages = [
                RowAtATimeStage() if isinstance(stage, RouteProbeStage) else stage
                for stage in default_stages()
            ]
        ex = AMRExecutor(
            query,
            stems,
            router,
            meter,
            arrival_rates={s: 1.0 for s in query.stream_names},
            config=ExecutorConfig(max_fanout=max_fanout),
            output_sink=sink.extend,
            stages=stages,
        )
        calls = []
        for name in ("probe", "probe_batch"):

            def spy(ap, arg, _fn=getattr(stems["C"], name), _name=name):
                calls.append((_name, len(arg)))
                return _fn(ap, arg)

            setattr(stems["C"], name, spy)
        plan = {
            0: [("B", {"k": 1, "pb": i}) for i in range(n_b)]
            + [("C", {"k": k, "pc": i}) for i, k in enumerate(c_keys)],
            1: [("A", {"k": 1, "pa": 0})],
        }
        stats = ex.run(2, arrivals_from(plan))
        pairs = [(j.sources[1]["pb"], j.sources[2]["pc"]) for j in sink]
        return ex, stats, pairs, calls

    def test_capped_hop_stops_in_the_row_that_reaches_the_cap(self):
        # Second hop: 3 partials x 4 stored tuples >= max_fanout 5.  A chunk
        # of ceil(5 / 4) = 2 rows cannot reach the cap before its last row;
        # the hop stops inside the second probe's matches and the third
        # partial never probes — the numbers below are the pre-column
        # engine's.
        ex, stats, pairs, calls = self.run_clique(max_fanout=5)
        assert calls == [("probe_batch", 2)]
        assert pairs == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
        assert (stats.outputs, stats.probes, stats.matches) == (5, 10, 11)
        assert ex.meter.total_spent == 41.849999999999994
        assert ex.stems["C"].tuner.assessor.n_requests == 2
        # Both executed probes found all four C tuples: two EWMA folds.
        expected = 1.0
        for _ in range(2):
            expected = expected + 0.05 * (4 - expected)
        assert ex.context.estimator.expected_matches("C", 1) == expected

    # C holds 7 tuples of which each of the 5 partials matches 4.
    CHUNKED = dict(n_b=5, c_keys=(1, 1, 1, 1, 2, 2, 2))

    @pytest.mark.parametrize(
        "max_fanout,chunks",
        [
            pytest.param(*case, id=f"cap{case[0]}")
            for case in [
                (5, [1, 1]),  # ceil(5/7), then ceil((5-4)/7): stops in the second row
                (8, [2]),  # the chunk's last row lands exactly on the cap
                (16, [3, 1]),  # 12 partials after three rows, the fourth reaches 16
                (17, [3, 1, 1]),
                (20, [3, 2]),  # the last row reaches the cap; nothing is cut
                (21, [3, 2]),  # every row probed, the cap never reached
            ]
        ],
    )
    def test_capped_hop_in_chunks_equals_row_at_a_time(self, max_fanout, chunks):
        ex, stats, pairs, calls = self.run_clique(max_fanout, **self.CHUNKED)
        ref, ref_stats, ref_pairs, ref_calls = self.run_clique(
            max_fanout, reference=True, **self.CHUNKED
        )
        assert calls == [("probe_batch", n) for n in chunks]
        # The reference probed the same rows, one call each.
        assert ref_calls == [("probe_batch", 1)] * sum(chunks)
        assert pairs == ref_pairs and len(pairs) == min(max_fanout, 20)
        assert (stats.outputs, stats.probes, stats.matches) == (
            ref_stats.outputs,
            ref_stats.probes,
            ref_stats.matches,
        )
        assert ex.meter.total_spent == ref.meter.total_spent
        for stream in "BC":
            assessor, ref_assessor = (e.stems[stream].tuner.assessor for e in (ex, ref))
            assert assessor.n_requests == ref_assessor.n_requests
            assert assessor.frequencies() == ref_assessor.frequencies()
            assert ex.stems[stream].index.accountant == ref.stems[stream].index.accountant
        assert (
            ex.context.estimator.expected_matches("C", 1)
            == ref.context.estimator.expected_matches("C", 1)
        )

    def test_uncapped_hop_is_one_column(self):
        ex, stats, pairs, calls = self.run_clique(max_fanout=50_000)
        assert calls == [("probe_batch", 3)]
        assert pairs == [(b, c) for b in range(3) for c in range(4)]
        assert (stats.outputs, stats.probes, stats.matches) == (12, 11, 15)
        assert ex.meter.total_spent == 50.599999999999994
        assert ex.stems["C"].tuner.assessor.n_requests == 3


class TestProbeBinding:
    """A probe value is read from the stream its predicate names, not from
    whichever joined stream last carried an attribute of that name."""

    # R(x), S(x, y), T(y, x) with R.x = S.x and S.y = T.y: T.x is payload
    # that shares its name with the R/S join column.
    STREAMS = [
        StreamSchema("R", ("x",)),
        StreamSchema("S", ("x", "y")),
        StreamSchema("T", ("y", "x")),
    ]
    PREDICATES = [JoinPredicate("R", "x", "S", "x"), JoinPredicate("S", "y", "T", "y")]
    TUPLES = {
        "R": [{"x": 1}, {"x": 2}, {"x": 99}],
        "S": [{"x": 1, "y": 7}, {"x": 2, "y": 8}, {"x": 99, "y": 9}],
        "T": [{"y": 7, "x": 99}, {"y": 8, "x": 1}, {"y": 7, "x": 2}],
    }
    # Every route order that is not a cross product, per arriving stream.
    ROUTES = [("R", ("S", "T")), ("S", ("R", "T")), ("S", ("T", "R")), ("T", ("S", "R"))]

    @pytest.mark.parametrize("source,route", ROUTES)
    def test_every_route_order_equals_the_nested_loop_join(self, source, route):
        query, stems, _router, meter = make_parts(Query(self.STREAMS, self.PREDICATES, window=5))
        routes = {"R": ["S", "T"], "S": ["R", "T"], "T": ["S", "R"], source: list(route)}
        sink = []
        ex = AMRExecutor(
            query,
            stems,
            FixedRouter(routes),
            meter,
            arrival_rates={s: 1.0 for s in query.stream_names},
            output_sink=sink.extend,
        )
        # The other two streams arrive first; ``source`` arrives last, so
        # its tuples' probe sequences (along ``route``) produce every result.
        plan = {
            0: [(s, v) for s in "RST" if s != source for v in self.TUPLES[s]],
            1: [(source, v) for v in self.TUPLES[source]],
        }
        ex.run(2, arrivals_from(plan))
        got = sorted(
            (
                tuple(dict(src) for src in sorted(j.sources, key=lambda t: t.stream))
                for j in sink
            ),
            key=repr,
        )
        nested_loop = sorted(
            (
                (r, s, t)
                for r in self.TUPLES["R"]
                for s in self.TUPLES["S"]
                for t in self.TUPLES["T"]
                if r["x"] == s["x"] and s["y"] == t["y"]
            ),
            key=repr,
        )
        assert len(nested_loop) == 3
        assert got == nested_loop


class TestOrderingFilter:
    """Every match comes from the probed state, so the hop's one compare
    against the anchor's timestamp equals the ``(arrived_at, stream)``
    tuple compare — same-tick ties in both directions, and timestamps that
    are not integers."""

    STORED = (0.5, 1.25, 2.25, 2.25, 2.5, 3)

    @classmethod
    def run(cls, anchor_stream, route, at):
        streams = [StreamSchema(s, ("k", "n")) for s in "ABC"]
        preds = [JoinPredicate(a, "k", b, "k") for a, b in ("AB", "BC", "AC")]
        query, stems, _router, meter = make_parts(Query(streams, preds, window=100))
        routes = {s: [t for t in "ABC" if t != s] for s in "ABC"}
        routes[anchor_stream] = list(route)
        sink = []
        ctx = EngineContext(
            query=query,
            stems=stems,
            router=FixedRouter(routes),
            meter=meter,
            arrival_rates={},
            domain_bits={},
            config=ExecutorConfig(),
            output_sink=sink.extend,
        )
        stored = {
            s: [StreamTuple(s, t, {"k": 1, "n": i}) for i, t in enumerate(cls.STORED)]
            for s in route
        }
        for items in stored.values():
            for item in items:
                stems[item.stream].insert(item, item.arrived_at)
        anchor = StreamTuple(anchor_stream, at, {"k": 1, "n": -1})
        ctx.queue.append(anchor)
        meter.start_tick()
        RouteProbeStage().run(ctx, TickState(tick=0))
        got = sorted(tuple((s.stream, s["n"]) for s in j.sources[1:]) for j in sink)
        key = (anchor.arrived_at, anchor.stream)
        older = {
            s: [m for m in items if (m.arrived_at, m.stream) < key] for s, items in stored.items()
        }
        first, second = route
        expected = sorted(
            ((first, x["n"]), (second, y["n"])) for x in older[first] for y in older[second]
        )
        return got, expected

    @pytest.mark.parametrize(
        "anchor,route",
        [
            ("B", "AC"),  # a tie passes on the first hop, not on the second
            ("A", "BC"),  # a tie passes on neither hop
            ("C", "BA"),  # a tie passes on both hops
            ("A", "CB"),  # B sorts before C, the previous hop, but not before A
        ],
    )
    @pytest.mark.parametrize("at", [2.25, 3, 0.25])
    def test_hop_filter_equals_the_tuple_compare(self, anchor, route, at):
        got, expected = self.run(anchor, route, at)
        assert got == expected
        if at == 2.25 and anchor == "C":
            assert len(expected) == 16  # ties kept: 4 x 4 older-or-tied tuples


class CarryCheckingStage(RouteProbeStage):
    """At every hop, the carried "before" cost of the target state is the
    float a fresh ``ctx.stem_cost`` reads, bit for bit."""

    def __init__(self):
        self.checked = 0

    def _process(self, ctx, item, tick, carried):
        self._carried = carried
        super()._process(ctx, item, tick, carried)

    def _probe_hop(self, ctx, item, target, joined, partials, observe_content):
        carried = self._carried.get(target)
        if carried is not None:
            assert carried.hex() == ctx.stem_cost(ctx.stems[target]).hex()
            self.checked += 1
        return super()._probe_hop(ctx, item, target, joined, partials, observe_content)


def test_carried_cost_is_a_fresh_snapshot_under_faults_and_degradation():
    import dataclasses

    from repro.workloads.scenarios import PaperScenario
    from tests.faults import FAULT_PROFILES, drive
    from tests.integration.test_observer_conformance import TICKS, backlogged_params

    faults = dataclasses.replace(FAULT_PROFILES["arrivals"], migrate_prob=0.05, corrupt_prob=0.05)
    # The observer matrix's scenario, its budget tight enough that one
    # state degrades to a scan mid-run.
    scenario = PaperScenario(backlogged_params(memory_budget=14_000))
    registry = MetricsRegistry()
    ex = scenario.make_executor(
        "amri:cdia-highest", degrade=True, metrics=registry
    )
    spy = CarryCheckingStage()
    ex.kernel.stages = tuple(
        spy if isinstance(stage, RouteProbeStage) else stage for stage in ex.kernel.stages
    )
    stats = drive(ex, TICKS, scenario.make_generator(), faults, fault_seed=1)
    assert spy.checked > 100
    assert stats.shed_tuples > 0 and stats.degradations > 0 and stats.migrations > 0
    assert stats.died_at is None
    snap = registry.snapshot()
    assert snap.cost_total == ex.meter.total_spent
    by_kind = snap.cost_by("component", "phase", "index_kind")
    kinds = {
        (component, phase): kind
        for component, phase, kind in by_kind
        if component in ("index", "tuner")
    }
    assert kinds[("index", "insert")] in ("bit_address", "scan")
    assert "-" not in kinds.values()  # every index charge carries its label


class AdmitCheckingStage(ArrivalStage):
    """After every admission, each carried state cost is the float a fresh
    ``ctx.stem_cost`` reads, bit for bit."""

    def __init__(self):
        self.checked = 0

    def _admit(self, ctx, item, carried):
        admitted = super()._admit(ctx, item, carried)
        for name, cost in carried.items():
            assert cost.hex() == ctx.stem_cost(ctx.stems[name]).hex()
            self.checked += 1
        return admitted


def test_arrivals_carry_a_fresh_snapshot_under_faults_and_degradation():
    import dataclasses

    from repro.workloads.scenarios import PaperScenario
    from tests.faults import FAULT_PROFILES, drive
    from tests.integration.test_observer_conformance import TICKS, backlogged_params

    faults = dataclasses.replace(FAULT_PROFILES["arrivals"], migrate_prob=0.05, corrupt_prob=0.05)
    scenario = PaperScenario(backlogged_params(memory_budget=14_000))
    registry = MetricsRegistry()
    ex = scenario.make_executor(
        "amri:cdia-highest", degrade=True, metrics=registry
    )
    spy = AdmitCheckingStage()
    ex.kernel.stages = tuple(
        spy if isinstance(stage, ArrivalStage) else stage for stage in ex.kernel.stages
    )
    stats = drive(ex, TICKS, scenario.make_generator(), faults, fault_seed=1)
    assert spy.checked > stats.source_tuples > 100
    assert stats.degradations > 0 and stats.migrations > 0
    assert registry.snapshot().cost_total == ex.meter.total_spent


class TestArrivalHashPass:
    """The arrivals' one hashing pass: every join value of a tick is in the
    memo before the tick's first admission, within the memo's bound."""

    @staticmethod
    def context():
        streams = [StreamSchema("A", ("k", "j")), StreamSchema("B", ("k", "j"))]
        preds = [JoinPredicate("A", "k", "B", "k"), JoinPredicate("A", "j", "B", "j")]
        query, stems, router, meter = make_parts(Query(streams, preds, window=5))
        return EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates={},
            domain_bits={},
            config=ExecutorConfig(),
        )

    def test_the_first_admission_finds_the_tick_memoized(self):
        from repro.utils import bitops

        memo = bitops._HASH_MEMO
        seen = []

        class Spy(ArrivalStage):
            def _admit(self, ctx, item, carried):
                seen.append(dict(memo))
                return super()._admit(ctx, item, carried)

        ctx = self.context()
        items = [StreamTuple("A", 0, {"k": i, "j": 1000 + i}) for i in range(5)]
        memo.clear()
        Spy().run(ctx, TickState(tick=0, incoming=items))
        values = {v for item in items for v in (item["k"], item["j"])}
        assert set(seen[0]) == values
        assert all(seen[0][v] == bitops.stable_value_hash(v) for v in values)

    def test_a_state_whose_index_hashes_nothing_gets_no_pass(self):
        from repro.indexes.scan_index import ScanIndex
        from repro.utils.bitops import _HASH_MEMO

        ctx = self.context()
        a = ctx.stems["A"]
        ctx.stems["A"] = StateStore("A", a.jas, ScanIndex(a.jas), a.window.length, a.tuner)
        _HASH_MEMO.clear()
        items = [StreamTuple("A", 0, {"k": 10**6 + i, "j": 2 * 10**6 + i}) for i in range(5)]
        ArrivalStage().run(ctx, TickState(tick=0, incoming=items))
        assert len(_HASH_MEMO) == 0 and ctx.stems["A"].size == 5

    def test_a_tick_wider_than_the_memo_leaves_it_within_its_bound(self):
        from repro.utils.bitops import HASH_MEMO_SIZE, _HASH_MEMO

        ctx = self.context()
        n = HASH_MEMO_SIZE // 2 + 1  # two join values a tuple: 2 more than the bound
        items = [StreamTuple("A", 0, {"k": i, "j": n + i}) for i in range(n)]
        ArrivalStage().run(ctx, TickState(tick=0, incoming=items))
        assert 0 < len(_HASH_MEMO) <= HASH_MEMO_SIZE
        assert ctx.stats.source_tuples == n == ctx.stems["A"].size


class TestEmit:
    """Partials are source tuples until emit; a ``JoinedTuple`` exists only
    for a sink to read."""

    @staticmethod
    def clique(sink=None, routes=None):
        streams = [StreamSchema(s, ("k", f"p{s.lower()}")) for s in "ABC"]
        preds = [JoinPredicate(a, "k", b, "k") for a, b in ("AB", "BC", "AC")]
        query, stems, router, meter = make_parts(Query(streams, preds, window=5))
        if routes is not None:
            router = FixedRouter(routes)
        ex = AMRExecutor(
            query,
            stems,
            router,
            meter,
            arrival_rates={s: 1.0 for s in query.stream_names},
            output_sink=sink,
        )
        plan = {
            0: [("B", {"k": 1, "pb": i}) for i in range(2)] + [("C", {"k": 1, "pc": 5})],
            1: [("A", {"k": 1, "pa": 0})],
        }
        return ex, arrivals_from(plan)

    def test_results_are_joined_tuples_in_join_order(self):
        from repro.engine.tuples import JoinedTuple

        sink = []
        ex, arrivals = self.clique(sink.extend)
        stats = ex.run(2, arrivals)
        assert stats.outputs == len(sink) == 2
        for result in sink:
            assert isinstance(result, JoinedTuple)
            a, b, c = result.sources
            assert (a.stream, b.stream, c.stream) == ("A", "B", "C")  # A -> B -> C
            assert (a["pa"], c["pc"]) == (0, 5)
        assert sorted(result.sources[1]["pb"] for result in sink) == [0, 1]

    def test_no_joined_tuple_is_built_without_a_sink(self, monkeypatch):
        from repro.engine.tuples import JoinedTuple

        built = []
        init = JoinedTuple.__init__

        def spy(self, sources):
            built.append(sources)
            init(self, sources)

        monkeypatch.setattr(JoinedTuple, "__init__", spy)
        ex, arrivals = self.clique()
        assert ex.run(2, arrivals).outputs == 2
        assert built == []
        sink = []
        ex, arrivals = self.clique(sink.extend)
        ex.run(2, arrivals)
        assert len(built) == 2  # the spy does see emit-time construction

    def test_route_revisiting_a_stream_is_a_named_error(self):
        ex, arrivals = self.clique(
            routes={"A": ["B", "B"], "B": ["A", "C"], "C": ["A", "B"]}
        )
        with pytest.raises(ValueError, match="'B' already joined"):
            ex.run(2, arrivals)


class TestFacade:
    def test_exposes_kernel_parts(self):
        ex = make_executor()
        assert isinstance(ex.context, EngineContext)
        assert [stage.name for stage in ex.kernel.stages] == [
            "arrivals", "expiry", "route_probe", "tuning", "shed_degrade", "audit",
        ]
        assert isinstance(ex.kernel, EngineKernel)

    def test_attribute_writes_reach_the_context(self):
        ex = make_executor()
        router = FixedRouter({"A": ["B"], "B": ["A"]})
        ex.router = router
        assert ex.context.router is router


class TestSchedulers:
    """The backlog has one schedule, arrival order (``RouteProbeStage`` pops
    the queue's head)."""

    # Only the routing decision costs: one request is exactly one unit.
    ONE_UNIT_PER_REQUEST = CostParams(
        c_hash=0.0,
        c_compare=0.0,
        c_bucket=0.0,
        c_insert=0.0,
        c_delete=0.0,
        c_move=0.0,
        c_output=0.0,
        c_route=1.0,
    )
    PLAN = {
        0: [("A", {"k": 1, "pa": 0}), ("B", {"k": 2, "pb": 0}), ("A", {"k": 3, "pa": 1})],
        1: [("B", {"k": 4, "pb": 1})],
    }

    def one_request_per_tick(self, **kwargs):
        query, stems, router, _ = make_parts()
        meter = ResourceMeter(params=self.ONE_UNIT_PER_REQUEST, capacity=1.0)
        return AMRExecutor(
            query,
            stems,
            router,
            meter,
            arrival_rates={s: 1.0 for s in query.stream_names},
            **kwargs,
        )

    def test_fifo_drains_in_arrival_order(self):
        ex = self.one_request_per_tick()
        router = ex.router
        served = []
        choose = router.choose_route

        def spy(stream, estimator, item):
            served.append(item["k"])
            return choose(stream, estimator, item)

        router.choose_route = spy
        stats = ex.run(5, arrivals_from(self.PLAN))
        assert served == [1, 2, 3, 4]  # the k values, in arrival order
        # One request leaves the queue per tick.
        assert [s.backlog for s in stats.samples] == [2, 2, 1, 0, 0]

    def test_backlog_scheduler_run_is_deterministic(self):
        plan = {
            t: [("A", {"k": t % 3, "pa": 0}), ("B", {"k": t % 3, "pb": 0})]
            for t in range(8)
        }

        def run_once():
            query, stems, router, meter = make_parts(capacity=120.0)
            ex = AMRExecutor(
                query,
                stems,
                router,
                meter,
                arrival_rates={s: 1.0 for s in query.stream_names},
            )
            stats = ex.run(8, arrivals_from(plan))
            return (stats.outputs, stats.probes, stats.matches, tuple(stats.samples))

        assert run_once() == run_once()

    def test_backlog_scheduler_preserves_cost_attribution(self):
        registry = MetricsRegistry()
        ex = self.one_request_per_tick(metrics=registry)
        stats = ex.run(5, arrivals_from(self.PLAN))
        assert stats.samples[0].backlog > 0  # the drain spans ticks
        assert registry.snapshot().cost_total == ex.meter.total_spent
