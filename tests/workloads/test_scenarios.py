"""Tests for the canned Section V scenario builder."""

import pytest

from repro.core.bit_index import BitAddressIndex
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.workloads.scenarios import PaperScenario, ScenarioParams


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(ScenarioParams())


class TestTopology:
    def test_four_streams_six_predicates(self, scenario):
        assert len(scenario.query.streams) == 4
        assert len(scenario.query.predicates) == 6

    def test_each_state_has_three_join_attributes(self, scenario):
        for s in scenario.query.stream_names:
            assert len(scenario.query.jas_for(s)) == 3

    def test_pair_attributes(self):
        p = ScenarioParams()
        assert p.pair_attributes == ("AB", "AC", "AD", "BC", "BD", "CD")

    def test_domain_bits(self, scenario):
        bits = scenario.domain_bits()
        assert all(b == 8 for b in bits.values())  # 256-value domains


class TestStemFactories:
    def test_amri_scheme(self, scenario):
        stems = scenario.build_stems("amri:cdia-highest")
        for stem in stems.values():
            assert isinstance(stem.index, BitAddressIndex)
            assert isinstance(stem.tuner, AMRITuner)
            assert stem.index.config.total_bits <= 64

    def test_hash_scheme_module_count(self, scenario):
        for k in (1, 4, 7):
            stems = scenario.build_stems(f"hash:{k}")
            for stem in stems.values():
                assert isinstance(stem.index, MultiHashIndex)
                assert stem.index.module_count == k
                assert isinstance(stem.tuner, HashIndexTuner)

    def test_static_scheme(self, scenario):
        stems = scenario.build_stems("static")
        for stem in stems.values():
            assert isinstance(stem.index, StaticBitmapIndex)
            assert isinstance(stem.tuner, NullTuner)

    def test_scan_scheme(self, scenario):
        stems = scenario.build_stems("scan")
        for stem in stems.values():
            assert isinstance(stem.index, ScanIndex)

    def test_unknown_scheme_rejected(self, scenario):
        with pytest.raises(ValueError, match="unknown scheme"):
            scenario.build_stems("btree:3")

    def test_initial_configs_respected(self, scenario):
        from repro.core.index_config import IndexConfiguration

        jas = scenario.query.jas_for("A")
        custom = IndexConfiguration(jas, [1, 2, 3])
        stems = scenario.build_stems("amri:sria", initial_configs={"A": custom})
        assert stems["A"].index.config == custom

    def test_a_trained_config_is_rebuilt_over_the_query_jas(self, scenario):
        """A trained IC ranges over the training scenario's JAS, an equal
        object; the state's index ranges over the query's own."""
        from repro.core.access_pattern import JoinAttributeSet
        from repro.core.index_config import IndexConfiguration

        jas = scenario.query.jas_for("A")
        trained = IndexConfiguration(JoinAttributeSet(jas.names), [1, 2, 3])
        for scheme in ("amri:sria", "static"):
            stems = scenario.build_stems(scheme, initial_configs={"A": trained})
            assert stems["A"].index.config == trained
            assert stems["A"].index.jas is jas

    def test_default_is_stop_the_world(self, scenario):
        # The tuner reconfigures the store's one index in place.
        stems = scenario.build_stems("amri:sria")
        for stem in stems.values():
            assert stem.tuner.index is stem.index
            assert not hasattr(stem, "lifecycle")


class TestExecutorFactory:
    def test_same_seed_same_arrivals(self, scenario):
        a = [dict(t) for t in scenario.make_generator().arrivals(3)]
        b = [dict(t) for t in scenario.make_generator().arrivals(3)]
        assert a == b

    def test_seed_offset_changes_arrivals(self, scenario):
        a = [dict(t) for t in scenario.make_generator(seed_offset=0).arrivals(3)]
        b = [dict(t) for t in scenario.make_generator(seed_offset=1).arrivals(3)]
        assert a != b

    def test_short_run_produces_output(self, scenario):
        ex = scenario.make_executor("amri:cdia-highest", capacity=1e9, memory_budget=1 << 30)
        stats = ex.run(40, scenario.make_generator())
        assert stats.outputs > 0
        assert stats.probes > 0

    def test_overrides(self, scenario):
        ex = scenario.make_executor("scan", capacity=123.0, memory_budget=456)
        assert ex.meter.capacity == 123.0
        assert ex.meter.memory_budget == 456

    def test_identical_runs_reproducible(self):
        results = []
        for _ in range(2):
            sc = PaperScenario(ScenarioParams(seed=13))
            ex = sc.make_executor("amri:cdia-highest", capacity=1e9, memory_budget=1 << 30)
            stats = ex.run(30, sc.make_generator())
            results.append((stats.outputs, stats.probes, stats.matches))
        assert results[0] == results[1]


class TestMultiCharStreamNames:
    def test_pair_attribute_naming(self):
        short = ScenarioParams(stream_names=("A", "B", "C"))
        assert short.pair_attributes == ("AB", "AC", "BC")
        long = ScenarioParams(stream_names=("price", "news"))
        assert long.pair_attributes == ("news_price",)

    def test_multi_char_scenario_executes(self):
        sc = PaperScenario(ScenarioParams(stream_names=("price", "volume", "news"), seed=5))
        ex = sc.make_executor("amri:sria", capacity=1e9, memory_budget=1 << 30)
        stats = ex.run(20, sc.make_generator())
        assert stats.probes > 0


class TestSensorScenario:
    def test_builds_and_runs(self):
        from repro.workloads import sensor_network_scenario

        sc = sensor_network_scenario()
        assert len(sc.query.streams) == 3
        for s in sc.query.stream_names:
            assert len(sc.query.jas_for(s)) == 2
        ex = sc.make_executor("amri:cdia-highest", capacity=1e9, memory_budget=1 << 30)
        stats = ex.run(30, sc.make_generator())
        assert stats.outputs > 0

    def test_bursts_modulate_arrivals(self):
        from repro.workloads import sensor_network_scenario

        sc = sensor_network_scenario()
        gen = sc.make_generator()
        sizes = {t: len(gen.arrivals(t)) for t in (3, 50)}
        assert sizes[3] > sizes[50] * 1.5  # tick 3 is inside the burst window


class TestRouterOption:
    @pytest.mark.parametrize("router", ["greedy", "content", "fixed"])
    def test_each_policy_runs(self, router):
        from repro.engine.router import (
            ContentBasedRouter,
            FixedRouter,
            GreedyAdaptiveRouter,
        )

        expected = {
            "greedy": GreedyAdaptiveRouter,
            "content": ContentBasedRouter,
            "fixed": FixedRouter,
        }[router]
        sc = PaperScenario(ScenarioParams(seed=5, router=router))
        ex = sc.make_executor("amri:sria", capacity=1e9, memory_budget=1 << 30)
        assert isinstance(ex.router, expected)
        stats = ex.run(20, sc.make_generator())
        assert stats.probes > 0

    def test_unknown_router_rejected(self):
        sc = PaperScenario(ScenarioParams(router="teleport"))
        with pytest.raises(ValueError, match="unknown router"):
            sc.make_router()
