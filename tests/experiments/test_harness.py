"""Tests for the experiment harness (training) and the measured runs it
starts (one ``RunSpec`` per scheme through ``execute_spec``)."""

from dataclasses import replace

import pytest

from repro.experiments.harness import train_initial_state
from repro.experiments.parallel import RunSpec, execute_spec
from repro.workloads.scenarios import PaperScenario, ScenarioParams
from tests.conftest import spec_stats as run


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(ScenarioParams(seed=21))


@pytest.fixture(scope="module")
def training(scenario):
    return train_initial_state(scenario, train_ticks=40)


class TestTraining:
    def test_configs_for_every_state(self, scenario, training):
        assert set(training.configs) == set(scenario.query.stream_names)

    def test_configs_within_budget(self, scenario, training):
        for cfg in training.configs.values():
            assert cfg.total_bits <= scenario.params.bit_budget

    def test_frequencies_collected(self, training):
        for freqs in training.frequencies.values():
            assert freqs
            assert all(0 <= f <= 1 for f in freqs.values())

    def test_hash_patterns_sized(self, training):
        pats = training.hash_patterns(2)
        for plist in pats.values():
            assert 1 <= len(plist) <= 2

    def test_training_deterministic(self, scenario):
        a = train_initial_state(scenario, train_ticks=30)
        b = train_initial_state(scenario, train_ticks=30)
        assert a.configs == b.configs


def unbounded(scenario):
    """The scenario with resources no run exhausts."""
    return replace(scenario.params, capacity=1e9, memory_budget=1 << 30)


class TestRunScheme:
    def test_trained_run(self, scenario, training):
        stats = run(unbounded(scenario), "amri:cdia-highest", 30, training)
        assert stats.outputs > 0

    def test_hash_uses_trained_patterns(self, scenario, training):
        stats = run(unbounded(scenario), "hash:2", 20, training)
        assert stats.probes > 0

    def test_untrained_run(self, scenario):
        stats = run(unbounded(scenario), "static", 20)
        assert stats.source_tuples > 0


class TestRunComparison:
    def test_runs_all_schemes(self, scenario):
        params = unbounded(scenario)
        runs = {
            scheme: execute_spec(RunSpec(params, scheme, 20, train_ticks=20)).stats
            for scheme in ("amri:sria", "scan")
        }
        assert set(runs) == {"amri:sria", "scan"}
        for stats in runs.values():
            assert stats.source_tuples > 0

    def test_schemes_see_identical_arrivals(self, scenario):
        """One spec per scheme: every scheme must process the same tuples."""
        runs = {scheme: run(unbounded(scenario), scheme, 15) for scheme in ("scan", "amri:sria")}
        counts = {name: s.source_tuples for name, s in runs.items()}
        assert len(set(counts.values())) == 1
        # with unlimited resources, outputs are index-independent
        outs = {name: s.outputs for name, s in runs.items()}
        assert len(set(outs.values())) == 1
