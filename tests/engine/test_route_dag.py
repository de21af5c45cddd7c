"""The estimator-driven routers walk a route DAG; the routes are the loops'.

``GreedyAdaptiveRouter`` and ``ContentBasedRouter`` read each hop's
estimator key off a :class:`~repro.engine.router.RouteDag` instead of
deriving it per hop.  This holds both to the per-hop loops
they replaced, kept below as the reference: over chain, star, cycle and
clique join graphs of 3-5 streams (and one with two components, whose
cross-product hops are deferred to the end), with estimates that tie,
miss keys or sit at the default, with and without exploration, the
routes are equal and so is the RNG state afterwards.

A greedy route is chosen hop by hop (:class:`~repro.engine.router.GreedyRoute`),
so it is consumed here as the engine consumes it: between two hops the
joined target's estimates move, and the route still equals the loop's,
chosen up front.  A request whose first hop matches nothing reads no later
hop's estimate and expands no later node of the DAG.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import JoinPredicate, Query
from repro.engine.router import ContentBasedRouter, GreedyAdaptiveRouter
from repro.engine.stats import SelectivityEstimator
from repro.engine.stream import StreamSchema


def edges(shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if shape == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert shape == "split" and n >= 4  # two components: a pair, a chain
    return [(0, 1)] + [(i, i + 1) for i in range(2, n - 1)]


def make_query(shape: str, n: int) -> Query:
    """Streams S0..S{n-1}; an edge joins two streams on an attribute named
    after the pair, which both carry (the Section V topology's shape)."""
    names = [f"S{i}" for i in range(n)]
    attrs = {name: [] for name in names}
    predicates = []
    for i, j in edges(shape, n):
        attr = f"{names[i]}{names[j]}"
        attrs[names[i]].append(attr)
        attrs[names[j]].append(attr)
        predicates.append(JoinPredicate(names[i], attr, names[j], attr))
    return Query([StreamSchema(s, tuple(attrs[s])) for s in names], predicates, window=5)


# --------------------------------------------------------------------- #
# the per-hop loops the DAG replaced, kept as the reference


def greedy_loop(router, source, estimator, item=None):
    targets = tuple(t for t in router.query.stream_names if t != source)
    if len(targets) <= 1:
        return targets
    if router.explore_prob > 0 and router._rng.random() < router.explore_prob:
        order = router._rng.permutation(len(targets))
        return tuple(targets[i] for i in order)
    joined = {source}
    remaining = list(targets)
    route = []
    while remaining:
        best = None
        best_score = float("inf")
        for cand in remaining:
            try:
                ap, _bindings = router.query.probe_spec(joined, cand)
            except ValueError:
                continue
            score = estimator.expected_matches(cand, ap.mask)
            if score < best_score:
                best, best_score = cand, score
        if best is None:
            route.extend(remaining)
            break
        route.append(best)
        remaining.remove(best)
        joined.add(best)
    return tuple(route)


def content_loop(router, source, estimator, item=None):
    targets = tuple(t for t in router.query.stream_names if t != source)
    if len(targets) <= 1:
        return targets
    if router.explore_prob > 0 and router._rng.random() < router.explore_prob:
        order = router._rng.permutation(len(targets))
        return tuple(targets[i] for i in order)
    joined = {source}
    remaining = list(targets)
    route = []
    while remaining:
        best = None
        best_score = float("inf")
        for cand in remaining:
            try:
                ap, _bindings = router.query.probe_spec(joined, cand)
            except ValueError:
                continue
            bucket = router.bucket_for(item, source, cand)
            key = (cand, ap.mask, bucket)
            score = router._content.get(key, estimator.expected_matches(cand, ap.mask))
            if score < best_score:
                best, best_score = cand, score
        if best is None:
            route.extend(remaining)
            break
        route.append(best)
        remaining.remove(best)
        joined.add(best)
    return tuple(route)


ROUTERS = {
    "greedy": (lambda q, p, seed: GreedyAdaptiveRouter(q, explore_prob=p, seed=seed), greedy_loop),
    "content": (
        lambda q, p, seed: ContentBasedRouter(q, value_bits=2, explore_prob=p, seed=seed),
        content_loop,
    ),
}

#: Few distinct values, so scores tie — with each other and with ``initial``.
ESTIMATES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0])


@st.composite
def routing_cases(draw):
    shape = draw(st.sampled_from(["chain", "star", "cycle", "clique", "split"]))
    query = make_query(shape, draw(st.integers(4 if shape == "split" else 3, 5)))
    names = query.stream_names
    # Every key a hop can ask for; each present or missing.
    keys = [
        (target, mask)
        for target in names
        for mask in range(1, query.jas_for(target).full_mask + 1)
    ]
    estimates = draw(st.lists(st.tuples(st.sampled_from(keys), ESTIMATES), max_size=12))
    content = draw(
        st.lists(st.tuples(st.sampled_from(keys), st.integers(0, 3), ESTIMATES), max_size=6)
    )
    explore = draw(st.sampled_from([0.0, 0.3]))
    initial = draw(st.sampled_from([0.5, 1.0, 2.0]))
    arrivals = draw(st.lists(st.sampled_from(names), min_size=1, max_size=10))
    values = st.one_of(st.none(), st.integers(0, 7))
    items = [
        {attr: draw(values) for attr in query.schema(source).attributes} for source in arrivals
    ]
    # What each hop folds into its target's estimates, per arrival.
    folds = [draw(ESTIMATES) for _ in arrivals]
    return query, estimates, content, explore, initial, list(zip(arrivals, items, folds))


def fold_hop(router, twin, estimator, target, value):
    """What the engine does after a hop into ``target``: fold the probes
    into its estimates (here every pattern and bucket of it, to be
    thorough), on the shared estimator and in both content tables."""
    query = router.query
    for mask in range(1, query.jas_for(target).full_mask + 1):
        estimator.observe(target, mask, value)
        if isinstance(router, ContentBasedRouter):
            for r in (router, twin):
                for bucket in range(4):
                    r.observe_content(target, mask, bucket, value)


@pytest.mark.parametrize("kind", list(ROUTERS))
@settings(max_examples=60, deadline=None)
@given(case=routing_cases(), seed=st.integers(0, 3))
def test_routes_and_rng_equal_the_per_hop_loop(kind, case, seed):
    query, estimates, content, explore, initial, arrivals = case
    build, reference = ROUTERS[kind]
    router, twin = build(query, explore, seed), build(query, explore, seed)
    estimator = SelectivityEstimator(alpha=1.0, initial=initial)
    for (target, mask), value in estimates:
        estimator.observe(target, mask, value)
    if kind == "content":
        for r in (router, twin):
            for (target, mask), bucket, value in content:
                r.observe_content(target, mask, bucket, value)
    for source, item, fold in arrivals:
        expected = reference(twin, source, estimator, item)
        route = router.choose_route(source, estimator, item)
        assert len(route) == len(expected)
        got = []
        for target in route:
            got.append(target)
            fold_hop(router, twin, estimator, target, fold)
        assert tuple(got) == expected
    assert router._rng.bit_generator.state == twin._rng.bit_generator.state


class ReadSpy(dict):
    """An estimates mapping that records every key it is asked for."""

    def __init__(self):
        super().__init__()
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("kind", list(ROUTERS))
@pytest.mark.parametrize("first_hop_matches", [False, True])
def test_a_request_reads_only_the_hops_it_reaches(kind, first_hop_matches):
    from repro.engine.executor import AMRExecutor
    from repro.engine.tuples import StreamTuple
    from tests.engine.test_kernel import arrivals_from, make_parts

    query = make_query("clique", 4)
    _query, stems, _router, meter = make_parts(query)
    router = ROUTERS[kind][0](query, 0.0, 0)
    rates = dict.fromkeys(query.stream_names, 1.0)
    ex = AMRExecutor(query, stems, router, meter, arrival_rates=rates)
    spy = ex.context.estimator._estimates = ReadSpy()

    def values(stream):
        return {attr: 1 for attr in query.schema(stream).attributes}

    # One request, from S0: with the other three states holding a tuple
    # that joins it every hop matches, and with them empty the first hop
    # matches none.
    if first_hop_matches:
        for s in ("S1", "S2", "S3"):
            stems[s].insert(StreamTuple(s, 0, values(s)), 0)
    ex.run(2, arrivals_from({1: [("S0", values("S0"))]}))
    root_keys = {key for _target, key, _child in router._dag.roots["S0"].hops}
    expanded = {node.joined for node in router._dag._nodes.values() if node.hops is not None}
    if first_hop_matches:
        assert ex.stats.outputs == 1
        assert len(expanded) == 4  # {S0} and the node after each hop
        assert not set(spy.read) <= root_keys
    else:
        assert ex.stats.probes == 1 and ex.stats.matches == 0
        assert expanded == {frozenset({"S0"})}
        assert set(spy.read) <= root_keys
