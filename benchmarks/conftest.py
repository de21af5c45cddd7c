"""Shared fixtures for the benchmark suite.

Figure-level benchmarks regenerate the paper's experiments at a reduced
scale (fewer ticks than the figure harness in
``repro.experiments.figures``, which remains the reference for full-scale
regeneration).  Runs are seeded and the quasi-training pass is shared per
session so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.engine.stats import RunStats
from repro.experiments.harness import TrainingResult, train_initial_state
from repro.experiments.parallel import RunSpec, execute_spec
from repro.workloads.scenarios import PaperScenario, ScenarioParams

BENCH_SEED = 7
BENCH_TICKS = 150
# The headline comparisons need the horizon past the best baseline's death
# (~tick 200 at default calibration); shorter runs catch the baseline in its
# early lead, exactly as in the paper's Figure 7.
BENCH_TICKS_LONG = 400
BENCH_TRAIN_TICKS = 60


@pytest.fixture(scope="session")
def bench_scenario() -> PaperScenario:
    """The Section V scenario at its default calibration."""
    return PaperScenario(ScenarioParams(seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_training(bench_scenario) -> TrainingResult:
    """One quasi-training pass shared by every figure benchmark."""
    return train_initial_state(bench_scenario, train_ticks=BENCH_TRAIN_TICKS)


def run_trained(params, scheme: str, ticks: int, training: TrainingResult) -> RunStats:
    """One scheme's run (``execute_spec``) from a shipped quasi-trained start."""
    spec = RunSpec(params, scheme, ticks, train_ticks=BENCH_TRAIN_TICKS, training=training)
    return execute_spec(spec).stats


def run_once(benchmark, fn, *args):
    """Run an experiment exactly once under pytest-benchmark timing.

    Figure regenerations are deterministic experiment runs, not
    micro-kernels; re-running them for statistical rounds would only
    waste suite time.
    """
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
