"""Property-based invariants of the engine under random small workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.executor import AMRExecutor
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import ResourceMeter
from repro.engine.router import FixedRouter
from repro.engine.stream import StreamSchema
from repro.engine.tuples import StreamTuple
from repro.storage import StateStore


def build_two_stream_executor(window, capacity=1e9, budget=1 << 30):
    streams = [StreamSchema("A", ("k",)), StreamSchema("B", ("k",))]
    query = Query(streams, [JoinPredicate("A", "k", "B", "k")], window=window)
    stems = {
        s: StateStore(
            s,
            query.jas_for(s),
            make_bit_index(query.jas_for(s), [3]),
            window,
            NullTuner(SRIA(query.jas_for(s))),
        )
        for s in ("A", "B")
    }
    return AMRExecutor(
        query,
        stems,
        FixedRouter({"A": ["B"], "B": ["A"]}),
        ResourceMeter(capacity=capacity, memory_budget=budget),
        arrival_rates={"A": 1.0, "B": 1.0},
    )


arrival_plan = st.lists(
    st.tuples(
        st.integers(0, 9),  # tick
        st.sampled_from(["A", "B"]),
        st.integers(0, 3),  # key value
    ),
    max_size=40,
)


def plan_to_arrivals(plan):
    by_tick: dict[int, list[StreamTuple]] = {}
    for tick, stream, k in plan:
        by_tick.setdefault(tick, []).append(StreamTuple(stream, tick, {"k": k}))
    return lambda t: by_tick.get(t, [])


@settings(max_examples=40, deadline=None)
@given(plan=arrival_plan, window=st.integers(1, 8))
def test_join_symmetric_and_exact(plan, window):
    """Outputs match the brute-force pair count for any arrival pattern."""
    ex = build_two_stream_executor(window)
    stats = ex.run(12, plan_to_arrivals(plan))
    tuples = [(t, s, k) for t, s, k in plan]
    expected = 0
    for i, (t1, s1, k1) in enumerate(tuples):
        for t2, s2, k2 in tuples[i + 1 :]:
            if s1 == s2 or k1 != k2:
                continue
            lo, hi = min(t1, t2), max(t1, t2)
            if lo + window > hi:
                expected += 1
    assert stats.outputs == expected


@settings(max_examples=30, deadline=None)
@given(plan=arrival_plan, window=st.integers(1, 6))
def test_state_sizes_bounded_by_window(plan, window):
    """No state ever holds tuples beyond rate x window after expiry."""
    ex = build_two_stream_executor(window)
    arrivals = plan_to_arrivals(plan)
    ex.run(12, arrivals)
    # After the final expiry sweep, only tuples within the last `window`
    # ticks of their arrival can remain.
    for stem in ex.stems.values():
        for item in stem.window:
            assert item.arrived_at + window > 11


@settings(max_examples=30, deadline=None)
@given(plan=arrival_plan)
def test_probe_count_equals_assessor_records(plan):
    """Every probe is recorded exactly once with some state's assessor."""
    ex = build_two_stream_executor(window=5)
    stats = ex.run(12, plan_to_arrivals(plan))
    recorded = sum(s.tuner.assessor.n_requests for s in ex.stems.values())
    assert recorded == stats.probes


@settings(max_examples=20, deadline=None)
@given(plan=arrival_plan, capacity=st.floats(1.0, 50.0))
def test_constrained_run_never_exceeds_unconstrained_outputs(plan, capacity):
    """Backpressure can only lose or delay results, never invent them."""
    free = build_two_stream_executor(window=5)
    free_stats = free.run(12, plan_to_arrivals(plan))
    tight = build_two_stream_executor(window=5, capacity=capacity)
    tight_stats = tight.run(12, plan_to_arrivals(plan))
    assert tight_stats.outputs <= free_stats.outputs


@settings(max_examples=20, deadline=None)
@given(plan=arrival_plan)
def test_memory_returns_to_baseline_after_expiry(plan):
    """Once everything expires, index memory goes back to zero."""
    ex = build_two_stream_executor(window=2)
    arrivals = plan_to_arrivals(plan)

    def padded(t):
        return arrivals(t) if t < 10 else []

    ex.run(20, padded)  # ticks 10..19 only expire
    for stem in ex.stems.values():
        assert stem.size == 0
        assert stem.index.memory_bytes == 0
