"""Ten-seed claims of the ablation benchmarks.

Each ``benchmarks/test_ablation_*.py`` file states at least one claim in
:data:`CLAIMS`, measured by that file's own run helper at a seed.  A claim
reduces one seed to a number (its ``metric``) and whether the claim holds
there; ties count against a claim that says "greater".

    PYTHONPATH=src python -m benchmarks.ablations

runs every claim on :data:`SEEDS` and prints, per claim, the metric's
min / median / max and the seeds on which the claim holds.  The output is
committed as ``results_ablations.txt``; EXPERIMENTS.md quotes it, and an
extension variant is kept only while its claim holds on at least 9 of the
10 seeds (docs/decisions.md).
"""

from __future__ import annotations

import statistics
from collections.abc import Callable
from dataclasses import dataclass

from benchmarks import (
    test_ablation_bit_budget as bit_budget,
    test_ablation_combination as combination,
    test_ablation_epsilon_theta as epsilon_theta,
    test_ablation_exploration as exploration,
    test_ablation_index_designs as designs,
    test_ablation_migration_gate as gate,
    test_ablation_routing as routing,
)

#: The fixed seed set of every multi-seed study in this repository.
SEEDS = tuple(range(101, 111))


@dataclass(frozen=True)
class Claim:
    """One claim of one ablation file.

    ``measure(seed)`` returns the seed's metric and whether the claim
    holds on that seed.
    """

    file: str
    text: str
    metric: str
    measure: Callable[[int], tuple[float, bool]]


def _gain(variant: float, base: float) -> float:
    """``variant`` over ``base``, in percent."""
    return 100.0 * (variant / base - 1.0)


def _router_gain(name: str, base: str) -> Callable[[int], tuple[float, bool]]:
    def measure(seed: int) -> tuple[float, bool]:
        ours = routing.run_with_router(name, seed).outputs
        theirs = routing.run_with_router(base, seed).outputs
        return _gain(ours, theirs), ours > theirs

    return measure


def _budget(seed: int) -> tuple[float, bool]:
    wide = bit_budget.run_with_budget(64, seed).outputs
    starved = bit_budget.run_with_budget(4, seed).outputs
    return _gain(wide, starved), wide > starved


def _exploration(seed: int) -> tuple[float, bool]:
    none = exploration.run_with_exploration(0.0, seed).outputs
    heavy = exploration.run_with_exploration(0.4, seed).outputs
    return _gain(none, heavy), none > heavy


def _designs(seed: int) -> tuple[float, bool]:
    runs = designs.run_designs(False, seed)
    amri = runs["amri:cdia-highest"]
    best = max(runs[s].outputs for s in ("hash:4", "scan"))
    return _gain(amri.outputs, best), amri.completed and amri.outputs > best


def _gate(seed: int) -> tuple[float, bool]:
    migrations = [s.migrations for s in gate.gate_sweep(seed).values()]
    return migrations[0] - migrations[-1], migrations == sorted(migrations, reverse=True)


def _combination(seed: int) -> tuple[float, bool]:
    highest, rand = combination.combination_masses(seed)
    return highest - rand, highest >= rand


def _coverage(seed: int) -> tuple[float, bool]:
    coverage = epsilon_theta.min_coverage(seed)
    return 100.0 * coverage, coverage == 1.0


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "test_ablation_routing",
        "greedy routing: run outputs > FixedRouter's",
        "greedy vs fixed outputs, %",
        _router_gain("greedy", "fixed"),
    ),
    Claim(
        "test_ablation_routing",
        "ContentBasedRouter: run outputs > greedy's",
        "content vs greedy outputs, %",
        _router_gain("content", "greedy"),
    ),
    Claim(
        "test_ablation_bit_budget",
        "a 64-bit IC budget: run outputs > a 4-bit budget's",
        "64 vs 4 bits outputs, %",
        _budget,
    ),
    Claim(
        "test_ablation_exploration",
        "no exploration: run outputs > explore_prob 0.4's",
        "0.0 vs 0.4 outputs, %",
        _exploration,
    ),
    Claim(
        "test_ablation_index_designs",
        "under the paper's resource pressure AMRI completes with outputs > hash:4 and scan",
        "AMRI vs best of hash:4 / scan outputs, %",
        _designs,
    ),
    Claim(
        "test_ablation_migration_gate",
        "migrations fall monotonically as min_benefit_ratio goes 0 -> 1 -> 25",
        "migrations at 0 minus at 25",
        _gate,
    ),
    Claim(
        "test_ablation_combination",
        "highest-count combination surfaces >= random combination's mass",
        "highest-count minus random mass",
        _combination,
    ),
    Claim(
        "test_ablation_epsilon_theta",
        "CSRIA and CDIA cover every θ-frequent pattern at ε = 0.01, 0.05, 0.1",
        "lowest θ-coverage, %",
        _coverage,
    ),
)


def main() -> None:
    print(f"seeds {SEEDS[0]}-{SEEDS[-1]}; a tie counts against a \"greater\" claim")
    for claim in CLAIMS:
        values, holds = zip(*(claim.measure(seed) for seed in SEEDS))
        print(f"{claim.file}: {claim.text}")
        print(
            f"  {claim.metric}: min {min(values):+.3f}  median "
            f"{statistics.median(values):+.3f}  max {max(values):+.3f}  "
            f"holds {sum(holds)}/{len(SEEDS)}",
            flush=True,
        )


if __name__ == "__main__":
    main()
