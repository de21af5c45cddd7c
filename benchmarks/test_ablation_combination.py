"""Ablation: CDIA combination strategy (random vs highest-count).

Section IV-D2's intuition for highest-count combination: rolling a child
into the parent with the largest count maximises the chance the combined
mass clears θ at final-results time.  We test that intuition on a workload
engineered to reward it — many small specializations of one moderately
frequent parent — measuring how much workload mass each strategy surfaces.
Figure 6's two CDIA-highest headlines (over CSRIA, and over CDIA-random)
are claims of this file too, read from :func:`fig6_runs`.
"""

from functools import cache

import numpy as np

from benchmarks.conftest import run_once
from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA
from repro.engine.stats import RunStats
from repro.experiments.figures import DEFAULT_TICKS
from repro.experiments.parallel import RunSpec, run_parallel
from repro.workloads.scenarios import ScenarioParams

JAS4 = JoinAttributeSet(["A", "B", "C", "D"])
THETA = 0.1
N = 5_000


def skewed_lattice_stream(seed=0):
    """60% <A,*,*,*>; the rest spread thinly over A's specializations."""
    rng = np.random.default_rng(seed)
    parent = AccessPattern.from_attributes(JAS4, ["A"])
    specs = [ap for ap in parent.specializations(proper=True)]
    draws = []
    for _ in range(N):
        if rng.random() < 0.6:
            draws.append(parent)
        else:
            draws.append(specs[int(rng.integers(len(specs)))])
    return draws


def surfaced_mass(draws, combine, seed=0):
    cdia = CDIA(JAS4, epsilon=0.02, combine=combine, seed=seed)
    for ap in draws:
        cdia.record(ap)
    return sum(cdia.frequent_patterns(THETA).values())


def combination_masses(seed: int = 3) -> tuple[float, float]:
    """Mass surfaced on the stream of ``seed`` by highest-count combination,
    and by random combination (mean over combine seeds 0-4)."""
    draws = skewed_lattice_stream(seed)
    highest = surfaced_mass(draws, "highest_count")
    rand = np.mean([surfaced_mass(draws, "random", seed=s) for s in range(5)])
    return highest, float(rand)


@cache
def fig6_runs(seed: int) -> dict[str, RunStats]:
    """CDIA-highest, CDIA-random and CSRIA from one quasi-trained start of
    the paper scenario at ``seed``, at Figure 6's scale (600 ticks after
    120 training ticks); scheme → stats."""
    schemes = ("amri:cdia-highest", "amri:cdia-random", "amri:csria")
    specs = [RunSpec(ScenarioParams(seed=seed), s, DEFAULT_TICKS, train_ticks=120) for s in schemes]
    return {spec.scheme: outcome.stats for spec, outcome in zip(specs, run_parallel(specs))}


def test_combination_strategies(benchmark):
    highest, rand = run_once(benchmark, combination_masses)
    benchmark.extra_info["highest_count_mass"] = round(highest, 3)
    benchmark.extra_info["random_mass_mean5"] = round(rand, 3)
    # Both strategies must surface the dominant parent's mass...
    assert highest >= 0.6
    assert rand >= 0.5
    # ...and concentrating into the heaviest parent can't do worse than
    # scattering (allowing a small tolerance for roll-up path noise).
    assert highest >= rand - 0.05
