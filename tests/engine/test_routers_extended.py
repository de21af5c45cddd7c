"""Tests for the content-based routing policy."""

import pytest

from repro.engine.router import ContentBasedRouter
from repro.engine.stats import SelectivityEstimator

from tests.engine.test_query import paper_query


class TestContentBasedRouter:
    def test_route_covers_all_targets(self):
        q = paper_query()
        r = ContentBasedRouter(q, explore_prob=0.0, seed=0)
        route = r.choose_route("A", SelectivityEstimator(), {"AB": 1, "AC": 2, "AD": 3})
        assert sorted(route) == ["B", "C", "D"]

    def test_bucket_for_depends_on_value(self):
        q = paper_query()
        r = ContentBasedRouter(q, value_bits=4)
        buckets = {r.bucket_for({"AB": v}, "A", "B") for v in range(64)}
        assert len(buckets) > 1

    def test_none_item_buckets_to_zero(self):
        q = paper_query()
        r = ContentBasedRouter(q)
        assert r.bucket_for(None, "A", "B") == 0

    def test_routes_differ_by_content(self):
        """A value observed to explode on one join is routed around it."""
        q = paper_query()
        r = ContentBasedRouter(q, value_bits=2, explore_prob=0.0, seed=0)
        est = SelectivityEstimator(alpha=1.0, initial=5.0)
        # Find two AB values in different buckets.
        v_hot = next(v for v in range(64) if r.bucket_for({"AB": v}, "A", "B") == 0)
        v_cold = next(v for v in range(64) if r.bucket_for({"AB": v}, "A", "B") == 1)
        ap_b, _ = q.probe_spec({"A"}, "B")
        # Hot-value probes into B exploded; cold-value ones were cheap.
        for _ in range(50):
            r.observe_content("B", ap_b.mask, 0, 100)
            r.observe_content("B", ap_b.mask, 1, 0)
        route_hot = tuple(r.choose_route("A", est, {"AB": v_hot, "AC": 0, "AD": 0}))
        route_cold = tuple(r.choose_route("A", est, {"AB": v_cold, "AC": 0, "AD": 0}))
        assert route_cold[0] == "B"  # cheap for this value
        assert route_hot[0] != "B"  # routed around the hot value

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ContentBasedRouter(paper_query(), value_bits=0)
        with pytest.raises(ValueError):
            ContentBasedRouter(paper_query(), explore_prob=2.0)

    def test_runs_inside_engine(self):
        """Content-based routing drives a real scenario run."""
        from repro.workloads.scenarios import PaperScenario, ScenarioParams

        sc = PaperScenario(ScenarioParams(seed=3))
        ex = sc.make_executor("amri:sria", capacity=1e9, memory_budget=1 << 30)
        ex.router = ContentBasedRouter(sc.query, seed=3)
        stats = ex.run(30, sc.make_generator())
        assert stats.outputs > 0
