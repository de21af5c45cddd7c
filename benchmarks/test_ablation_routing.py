"""Ablation: routing policy (greedy+ε vs content-based vs fixed).

The AMR substrate is not the paper's contribution, but the router drives
the access-pattern mixture AMRI must serve, so routing policy is a design
choice worth quantifying.  All runs use the AMRI index with CDIA-highest
tuning over identical arrivals from one shared quasi-trained start; each
policy is the scenario's own (``ScenarioParams.router``), so every
exploring policy explores at the scenario's ``explore_prob``.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import BENCH_SEED, BENCH_TICKS, BENCH_TRAIN_TICKS, run_once, run_trained
from repro.engine.stats import RunStats
from repro.experiments.harness import cached_training
from repro.workloads.scenarios import ScenarioParams


def run_with_router(router_name: str, seed: int = BENCH_SEED) -> RunStats:
    params = ScenarioParams(seed=seed)
    training = cached_training(params, BENCH_TRAIN_TICKS)
    return run_trained(
        replace(params, router=router_name), "amri:cdia-highest", BENCH_TICKS, training
    )


@pytest.mark.parametrize("router_name", ["greedy", "content", "fixed"])
def test_routing_policy(benchmark, router_name):
    stats = run_once(benchmark, lambda: run_with_router(router_name))
    benchmark.extra_info["router"] = router_name
    benchmark.extra_info["outputs"] = stats.outputs
    benchmark.extra_info["died_at"] = stats.died_at
    assert stats.probes > 0


def test_adaptive_routing_beats_fixed(benchmark):
    """Any adaptive policy should at least match a fixed plan under drift."""

    def compare():
        return run_with_router("greedy"), run_with_router("fixed")

    greedy, fixed = run_once(benchmark, compare)
    benchmark.extra_info["greedy_outputs"] = greedy.outputs
    benchmark.extra_info["fixed_outputs"] = fixed.outputs
    assert greedy.outputs >= fixed.outputs * 0.8
