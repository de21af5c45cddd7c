"""Ablation: how the total IC bit budget moves AMRI throughput.

The paper fixes 64 bits per state; this ablation sweeps the budget to show
where the headroom stops paying (with 8-bit value domains the useful ceiling
is 24 effective bits per state, so 32 and 64 should coincide — validating
the domain-capping in the cost model).
"""

import pytest

from benchmarks.conftest import BENCH_TICKS, run_once, run_trained
from repro.experiments.harness import train_initial_state
from repro.workloads.scenarios import PaperScenario, ScenarioParams

BUDGETS = (4, 8, 16, 64)


@pytest.mark.parametrize("budget", BUDGETS)
def test_bit_budget(benchmark, budget):
    scenario = PaperScenario(ScenarioParams(seed=7, bit_budget=budget))

    def run():
        training = train_initial_state(scenario, train_ticks=60)
        return run_trained(scenario.params, "amri:cdia-highest", BENCH_TICKS, training)

    stats = run_once(benchmark, run)
    benchmark.extra_info["bit_budget"] = budget
    benchmark.extra_info["outputs"] = stats.outputs
    benchmark.extra_info["died_at"] = stats.died_at
    assert stats.outputs > 0


def test_bit_budget_shape(benchmark):
    """A starved budget must not beat the paper's 64-bit configuration."""

    def sweep():
        out = {}
        for budget in (4, 64):
            scenario = PaperScenario(ScenarioParams(seed=7, bit_budget=budget))
            training = train_initial_state(scenario, train_ticks=60)
            out[budget] = run_trained(scenario.params, "amri:cdia-highest", BENCH_TICKS, training)
        return out

    runs = run_once(benchmark, sweep)
    benchmark.extra_info["outputs"] = {b: r.outputs for b, r in runs.items()}
    assert runs[64].outputs >= runs[4].outputs * 0.9
