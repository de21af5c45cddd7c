"""Ablation: how the total IC bit budget moves AMRI throughput.

The paper fixes 64 bits per state; this ablation sweeps the budget to show
where the headroom stops paying (with 8-bit value domains the useful ceiling
is 24 effective bits per state, so 32 and 64 should coincide — validating
the domain-capping in the cost model).
"""

import pytest

from benchmarks.conftest import BENCH_SEED, BENCH_TICKS, BENCH_TRAIN_TICKS, run_once, run_trained
from repro.engine.stats import RunStats
from repro.experiments.harness import cached_training
from repro.workloads.scenarios import ScenarioParams

BUDGETS = (4, 8, 16, 64)


def run_with_budget(budget: int, seed: int = BENCH_SEED) -> RunStats:
    params = ScenarioParams(seed=seed, bit_budget=budget)
    training = cached_training(params, BENCH_TRAIN_TICKS)
    return run_trained(params, "amri:cdia-highest", BENCH_TICKS, training)


@pytest.mark.parametrize("budget", BUDGETS)
def test_bit_budget(benchmark, budget):
    stats = run_once(benchmark, lambda: run_with_budget(budget))
    benchmark.extra_info["bit_budget"] = budget
    benchmark.extra_info["outputs"] = stats.outputs
    benchmark.extra_info["died_at"] = stats.died_at
    assert stats.outputs > 0


def test_bit_budget_shape(benchmark):
    """A starved budget must not beat the paper's 64-bit configuration."""
    runs = run_once(benchmark, lambda: {b: run_with_budget(b) for b in (4, 64)})
    benchmark.extra_info["outputs"] = {b: r.outputs for b, r in runs.items()}
    assert runs[64].outputs >= runs[4].outputs * 0.9
