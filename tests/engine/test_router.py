"""Tests for Eddy-style routing policies."""

import pytest

from repro.engine.query import JoinPredicate, Query
from repro.engine.router import FixedRouter, GreedyAdaptiveRouter
from repro.engine.stats import SelectivityEstimator
from repro.engine.stream import StreamSchema

from tests.engine.test_query import paper_query


class TestFixedRouter:
    def test_returns_configured_route(self):
        r = FixedRouter({"A": ["B", "C", "D"]})
        assert r.choose_route("A", SelectivityEstimator()) == ("B", "C", "D")

    def test_unknown_source_raises(self):
        r = FixedRouter({})
        with pytest.raises(KeyError):
            r.choose_route("A", SelectivityEstimator())


class TestGreedyAdaptiveRouter:
    def test_route_covers_all_other_streams(self):
        q = paper_query()
        r = GreedyAdaptiveRouter(q, explore_prob=0.0, seed=0)
        route = r.choose_route("A", SelectivityEstimator())
        assert sorted(route) == ["B", "C", "D"]

    def test_greedy_prefers_selective_first_hop(self):
        q = paper_query()
        r = GreedyAdaptiveRouter(q, explore_prob=0.0, seed=0)
        est = SelectivityEstimator(alpha=1.0)
        # Probing D from {A} is cheap, B explodes.
        ap_b, _ = q.probe_spec({"A"}, "B")
        ap_c, _ = q.probe_spec({"A"}, "C")
        ap_d, _ = q.probe_spec({"A"}, "D")
        est.observe("B", ap_b.mask, 50)
        est.observe("C", ap_c.mask, 5)
        est.observe("D", ap_d.mask, 1)
        route = tuple(r.choose_route("A", est))
        assert route[0] == "D"

    def test_greedy_uses_hop_specific_patterns(self):
        """The second hop's estimate keys on the 2-attribute pattern."""
        q = paper_query()
        r = GreedyAdaptiveRouter(q, explore_prob=0.0, seed=0)
        est = SelectivityEstimator(alpha=1.0, initial=10.0)
        # First hop: D is cheapest.
        ap_d, _ = q.probe_spec({"A"}, "D")
        est.observe("D", ap_d.mask, 0)
        # From {A, D}: the 2-attr pattern into B is cheap, into C expensive.
        ap_b2, _ = q.probe_spec({"A", "D"}, "B")
        ap_c2, _ = q.probe_spec({"A", "D"}, "C")
        est.observe("B", ap_b2.mask, 1)
        est.observe("C", ap_c2.mask, 9)
        assert tuple(r.choose_route("A", est)) == ("D", "B", "C")

    def test_exploration_produces_other_orders(self):
        q = paper_query()
        r = GreedyAdaptiveRouter(q, explore_prob=1.0, seed=0)
        est = SelectivityEstimator()
        routes = {r.choose_route("A", est) for _ in range(50)}
        assert len(routes) > 1  # pure exploration: many permutations

    def test_seeded_reproducibility(self):
        q = paper_query()
        est = SelectivityEstimator()
        a = GreedyAdaptiveRouter(q, explore_prob=0.5, seed=42)
        b = GreedyAdaptiveRouter(q, explore_prob=0.5, seed=42)
        assert [tuple(a.choose_route("A", est)) for _ in range(20)] == [
            tuple(b.choose_route("A", est)) for _ in range(20)
        ]

    def test_rejects_bad_explore_prob(self):
        with pytest.raises(ValueError):
            GreedyAdaptiveRouter(paper_query(), explore_prob=1.5)

    def test_two_stream_query_trivial_route(self):
        streams = [StreamSchema("A", ("x",)), StreamSchema("B", ("x",))]
        q = Query(streams, [JoinPredicate("A", "x", "B", "x")], window=5)
        r = GreedyAdaptiveRouter(q, explore_prob=0.0)
        assert r.choose_route("A", SelectivityEstimator()) == ("B",)

    def test_chain_query_defers_unconnected(self):
        # A-B-C chain: from A, C is unreachable until B joins.
        streams = [
            StreamSchema("A", ("x",)),
            StreamSchema("B", ("x", "y")),
            StreamSchema("C", ("y",)),
        ]
        q = Query(
            streams,
            [JoinPredicate("A", "x", "B", "x"), JoinPredicate("B", "y", "C", "y")],
            window=5,
        )
        r = GreedyAdaptiveRouter(q, explore_prob=0.0)
        assert tuple(r.choose_route("A", SelectivityEstimator())) == ("B", "C")
