"""Ten-seed claims of the ablation benchmarks.

Each ``benchmarks/test_ablation_*.py`` file states at least one
:class:`~repro.experiments.validate.Claim` in :data:`CLAIMS`, measured by
that file's own run helper at a seed; ties count against a claim that says
"greater".

    PYTHONPATH=src python -m benchmarks.ablations

runs every claim on :data:`~repro.experiments.validate.SEEDS` through
``validate``'s summariser, which prints, per claim, the metric's min /
median / max and the seeds on which the claim holds.  The output is
committed as ``results_ablations.txt``; EXPERIMENTS.md quotes it, and an
extension variant is kept only while its claim holds on at least 9 of the
10 seeds (docs/decisions.md).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from benchmarks import (
    test_ablation_bit_budget as bit_budget,
    test_ablation_combination as combination,
    test_ablation_epsilon_theta as epsilon_theta,
    test_ablation_exploration as exploration,
    test_ablation_index_designs as designs,
    test_ablation_migration_gate as gate,
    test_ablation_routing as routing,
)
from repro.engine.stats import RunStats
from repro.experiments.reporting import improvement_pct
from repro.experiments.validate import SEEDS, Claim, Measure, summarise


def _beats(
    run: Callable[[Any, int], RunStats], ours: Any, theirs: Any, *, ties: bool = False
) -> Measure:
    """``run(ours, seed)``'s outputs over ``run(theirs, seed)``'s in percent,
    and whether they are greater (or equal, with ``ties``)."""

    def measure(seed: int) -> tuple[float, bool, str]:
        a, b = run(ours, seed).outputs, run(theirs, seed).outputs
        return improvement_pct(a, b), a > b or (ties and a == b), f"{a} vs {b}"

    return measure


def _fig6_run(scheme: str, seed: int) -> RunStats:
    return combination.fig6_runs(seed)[scheme]


def _designs(seed: int) -> tuple[float, bool, str]:
    runs = designs.run_designs(False, seed)
    amri, best = runs["amri:cdia-highest"], max(runs[s].outputs for s in ("hash:4", "scan"))
    holds = amri.completed and amri.outputs > best
    return improvement_pct(amri.outputs, best), holds, f"{amri.outputs} vs {best}"


def _gate(seed: int) -> tuple[float, bool, str]:
    migrations = [s.migrations for s in gate.gate_sweep(seed).values()]
    monotone = migrations == sorted(migrations, reverse=True)
    return migrations[0] - migrations[-1], monotone, f"migrations {migrations}"


def _combination(seed: int) -> tuple[float, bool, str]:
    highest, rand = combination.combination_masses(seed)
    return highest - rand, highest >= rand, f"mass {highest:.3f} vs {rand:.3f}"


def _coverage(seed: int) -> tuple[float, bool, str]:
    coverage = epsilon_theta.min_coverage(seed)
    return 100.0 * coverage, coverage == 1.0, f"lowest coverage {coverage:.3f}"


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "test_ablation_routing",
        "greedy routing: run outputs > FixedRouter's",
        "greedy vs fixed outputs, %",
        _beats(routing.run_with_router, "greedy", "fixed"),
    ),
    Claim(
        "test_ablation_routing",
        "ContentBasedRouter: run outputs > greedy's",
        "content vs greedy outputs, %",
        _beats(routing.run_with_router, "content", "greedy"),
    ),
    Claim(
        "test_ablation_bit_budget",
        "a 64-bit IC budget: run outputs > a 4-bit budget's",
        "64 vs 4 bits outputs, %",
        _beats(bit_budget.run_with_budget, 64, 4),
    ),
    Claim(
        "test_ablation_exploration",
        "no exploration: run outputs > explore_prob 0.4's",
        "0.0 vs 0.4 outputs, %",
        _beats(exploration.run_with_exploration, 0.0, 0.4),
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
        "test_ablation_combination",
        "CDIA-highest run outputs >= CSRIA's (paper +30 %)",
        "CDIA-highest vs CSRIA outputs, %",
        _beats(_fig6_run, "amri:cdia-highest", "amri:csria", ties=True),
    ),
    Claim(
        "test_ablation_combination",
        "CDIA-highest run outputs >= CDIA-random's",
        "CDIA-highest vs CDIA-random outputs, %",
        _beats(_fig6_run, "amri:cdia-highest", "amri:cdia-random", ties=True),
    ),
    Claim(
        "test_ablation_epsilon_theta",
        "CSRIA and CDIA cover every θ-frequent pattern at ε = 0.01, 0.05, 0.1",
        "lowest θ-coverage, %",
        _coverage,
    ),
)


def main() -> None:
    summarise(CLAIMS, SEEDS)


if __name__ == "__main__":
    main()
