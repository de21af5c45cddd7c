"""Integration tests: the full stack (workload → engine → tuner → figures).

These run the real Section V scenario at reduced scale and assert the
cross-module behaviours the unit tests cannot see: adaptation actually
happens in response to drift, schemes compare the way the paper says, and
runs are exactly reproducible.
"""

from dataclasses import replace

import pytest

from repro.core.access_pattern import JoinAttributeSet
from repro.core.bit_index import BitAddressIndex, make_bit_index
from repro.engine.tuples import StreamTuple
from repro.experiments.harness import train_initial_state
from repro.experiments.parallel import RunSpec, execute_spec
from repro.indexes import UnkeyableValueError
from repro.workloads.scenarios import PaperScenario, ScenarioParams, scenario_params
from tests.conftest import spec_stats as run

TICKS = 130
UNBOUNDED = {"capacity": 1e9, "memory_budget": 1 << 30}


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(ScenarioParams(seed=31))


@pytest.fixture(scope="module")
def training(scenario):
    return train_initial_state(scenario, train_ticks=60)


class TestAdaptation:
    def test_drift_triggers_migrations(self, scenario, training):
        stats = run(
            replace(scenario.params, **UNBOUNDED), "amri:cdia-highest", TICKS, training
        )
        assert stats.migrations > 0
        assert stats.tuning_rounds > 0

    def test_assessors_see_multiple_pattern_widths(self, scenario):
        """Routing diversity: states receive 1-, 2-, and 3-attribute probes."""
        ex = scenario.make_executor("amri:sria", capacity=1e9, memory_budget=1 << 30)
        ex.run(40, scenario.make_generator())
        widths = set()
        for stem in ex.stems.values():
            for ap in stem.tuner.assessor.frequencies():
                widths.add(ap.n_attributes)
        assert {1, 2, 3} <= widths

    def test_tuned_beats_static_under_drift(self, scenario, training):
        runs = {
            scheme: execute_spec(RunSpec(scenario.params, scheme, 300, train_ticks=60)).stats
            for scheme in ("amri:cdia-highest", "static")
        }
        assert runs["amri:cdia-highest"].outputs > runs["static"].outputs

    def test_indexed_beats_scan_under_pressure(self, scenario, training):
        runs = {
            scheme: run(scenario.params, scheme, TICKS, training)
            for scheme in ("amri:cdia-highest", "scan")
        }
        assert runs["amri:cdia-highest"].outputs > runs["scan"].outputs


class TestResultCorrectness:
    def test_outputs_independent_of_index_scheme(self, scenario):
        """With unlimited resources every scheme computes the same join."""
        outputs = set()
        for scheme in ("scan", "amri:sria", "hash:3", "static"):
            stats = run(replace(scenario.params, **UNBOUNDED), scheme, 60)
            outputs.add(stats.outputs)
        assert len(outputs) == 1

    def test_throughput_monotone_nondecreasing(self, scenario, training):
        stats = run(scenario.params, "amri:cdia-highest", TICKS, training)
        series = [s.outputs for s in stats.samples]
        assert all(b >= a for a, b in zip(series, series[1:]))


class TestSchemeIsolation:
    def test_a_hash_run_constructs_no_bit_address_index(self, scenario, training, monkeypatch):
        """The multi-hash comparator is the control for bit-address-only
        changes: after the (AMRI) quasi-training, its run never builds a
        bit-address index of any class."""
        built = []
        init = BitAddressIndex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(BitAddressIndex, "__init__", counting_init)
        stats = run(replace(scenario.params, memory_budget=1 << 34), "hash:3", 40, training)
        assert stats.outputs > 0 and built == []
        make_bit_index(JoinAttributeSet(["A", "B"]), [1, 1])
        assert built == [BitAddressIndex]  # the count sees a construction


class TestUnkeyableArrival:
    """A join value outside the value contract ends the run by name, on
    every scheme family, the scan included (under 0.1 s for the five)."""

    @staticmethod
    def poisoned(generator, query, at=3):
        """``generator``'s arrivals, the first of tick ``at`` carrying a
        ``list`` in its first join attribute."""

        def arrivals(tick):
            items = generator(tick)
            if tick == at:
                first = items[0]
                name = query.jas_for(first.stream).names[0]
                odd = StreamTuple(first.stream, tick, {**first, name: [first[name]]})
                items = [odd, *items[1:]]
            return items

        return arrivals

    @pytest.mark.parametrize(
        "scheme", ["amri:cdia-highest", "hash:3", "static", "inverted", "scan"]
    )
    def test_a_list_join_value_ends_the_run_by_stream_attribute_and_type(self, scheme):
        sc = PaperScenario(scenario_params("paper-small", 7))
        before = sc.make_executor(scheme).run(3, sc.make_generator())  # ticks 0-2 only
        ex = sc.make_executor(scheme)
        arrivals = self.poisoned(sc.make_generator(), sc.query)
        with pytest.raises(UnkeyableValueError) as refused:
            ex.run(10, arrivals)
        err = refused.value
        stream = arrivals(3)[0].stream
        name = sc.query.jas_for(stream).names[0]
        assert (err.stream, err.attribute, err.value_type) == (stream, name, list)
        assert str(err).startswith(
            f"stream {stream!r}: join attribute {name!r} holds a value of type list"
        )
        # The refused tuple is not counted: only ticks 0-2 were admitted.
        assert ex.stats.source_tuples == before.source_tuples > 0


class TestReproducibility:
    def test_full_pipeline_bit_identical(self, scenario):
        def one():
            sc = PaperScenario(ScenarioParams(seed=31))
            training = train_initial_state(sc, train_ticks=40)
            stats = run(sc.params, "amri:cdia-highest", 80, training)
            return (
                stats.outputs,
                stats.probes,
                stats.matches,
                stats.migrations,
                [s.outputs for s in stats.samples],
            )

        assert one() == one()

    def test_different_seeds_differ(self):
        def run_with(seed):
            return run(ScenarioParams(seed=seed, **UNBOUNDED), "amri:sria", 50).outputs

        assert run_with(1) != run_with(2)


class TestMemoryDeath:
    def test_overloaded_scheme_dies_and_flatlines(self, scenario, training):
        stats = run(replace(scenario.params, memory_budget=400_000), "hash:7", 200, training)
        assert stats.died_at is not None
        assert "memory budget exceeded" in stats.death_reason
        assert stats.samples[-1].tick == stats.died_at

    def test_generous_budget_survives(self, scenario, training):
        stats = run(replace(scenario.params, memory_budget=1 << 30), "hash:7", 100, training)
        assert stats.completed


class TestMultiwayJoinOracle:
    def test_three_way_join_matches_brute_force(self):
        """Engine outputs equal an itertools brute force over all windows."""
        import itertools

        from repro.workloads.scenarios import PaperScenario, ScenarioParams

        sc = PaperScenario(
            ScenarioParams(
                stream_names=("A", "B", "C"),
                rate=3,
                window=6,
                domain=6,
                hot_skew=0.0,
                cold_skew=0.0,
                explore_prob=0.3,
                seed=23,
            )
        )
        duration = 15
        gen = sc.make_generator()
        arrivals = {t: gen.arrivals(t) for t in range(duration)}
        ex = sc.make_executor("amri:sria", capacity=1e12, memory_budget=1 << 30)
        stats = ex.run(duration, lambda t: arrivals.get(t, []))

        all_tuples = [t for batch in arrivals.values() for t in batch]
        by_stream = {
            s: [t for t in all_tuples if t.stream == s] for s in ("A", "B", "C")
        }
        window = sc.params.window
        expected = 0
        for a, b, c in itertools.product(by_stream["A"], by_stream["B"], by_stream["C"]):
            if a["AB"] != b["AB"] or a["AC"] != c["AC"] or b["BC"] != c["BC"]:
                continue
            # Joinable iff every pair is alive when the youngest arrives.
            times = sorted(t.arrived_at for t in (a, b, c))
            if times[0] + window > times[2]:
                expected += 1
        assert stats.outputs == expected
