"""Ablation: the migration cost/benefit gate.

The tuner migrates only when the projected per-tick saving, over the next
assessment window, beats the relocation cost (``min_benefit_ratio``).
Setting the ratio to 0 migrates on any nominal improvement (thrash risk);
a large ratio freezes the index (staleness risk).  This sweep quantifies
the middle ground the default (1.0) sits in.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, BENCH_TICKS, BENCH_TRAIN_TICKS, run_once
from repro.engine.stats import RunStats
from repro.experiments.harness import cached_training
from repro.workloads.scenarios import PaperScenario, ScenarioParams

RATIOS = (0.0, 1.0, 25.0)


def run_with_ratio(ratio: float, seed: int = BENCH_SEED) -> RunStats:
    scenario = PaperScenario(ScenarioParams(seed=seed))
    training = cached_training(scenario.params, BENCH_TRAIN_TICKS)
    executor = scenario.make_executor(
        "amri:cdia-highest", initial_configs=training.configs
    )
    for stem in executor.stems.values():
        stem.tuner.min_benefit_ratio = ratio
    return executor.run(BENCH_TICKS, scenario.make_generator())


def gate_sweep(seed: int = BENCH_SEED) -> dict[float, RunStats]:
    """One run per ratio in :data:`RATIOS`."""
    return {r: run_with_ratio(r, seed) for r in RATIOS}


@pytest.mark.parametrize("ratio", RATIOS)
def test_migration_gate(benchmark, ratio):
    stats = run_once(benchmark, lambda: run_with_ratio(ratio))
    benchmark.extra_info["min_benefit_ratio"] = ratio
    benchmark.extra_info["outputs"] = stats.outputs
    benchmark.extra_info["migrations"] = stats.migrations
    assert stats.completed


def test_gate_ordering(benchmark):
    """Migration counts must fall monotonically as the gate tightens."""
    runs = run_once(benchmark, gate_sweep)
    benchmark.extra_info["migrations"] = {r: s.migrations for r, s in runs.items()}
    benchmark.extra_info["outputs"] = {r: s.outputs for r, s in runs.items()}
    assert runs[0.0].migrations >= runs[1.0].migrations >= runs[25.0].migrations
