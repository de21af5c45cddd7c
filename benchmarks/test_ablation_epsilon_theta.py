"""Ablation: assessment memory vs statistics quality across ε and θ.

Pure assessment-level sweep (no engine): a drifting, exploration-polluted
pattern stream over a 5-attribute JAS (31 possible patterns, enough for
compaction to matter) is fed to CSRIA and CDIA at several error rates; we
measure peak table size and the fraction of true ≥θ-frequency patterns the
final answer covers.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.access_pattern import JoinAttributeSet
from repro.core.assessment import CDIA, CSRIA, SRIA
from repro.workloads.patterns import (
    PatternStream,
    with_exploration_noise,
    zipf_distribution,
)

JAS5 = JoinAttributeSet(["A", "B", "C", "D", "E"])
N_REQUESTS = 6_000
THETA = 0.1


def workload(seed=0):
    base = zipf_distribution(JAS5, s=1.4, seed=seed)
    noisy = with_exploration_noise(base, JAS5, 0.25)
    drifted = with_exploration_noise(zipf_distribution(JAS5, s=1.4, seed=seed + 99), JAS5, 0.25)
    return PatternStream([(N_REQUESTS // 2, noisy), (N_REQUESTS // 2, drifted)], seed=seed)


def make_assessor(method, epsilon):
    if method == "csria":
        return CSRIA(JAS5, epsilon)
    return CDIA(JAS5, epsilon, combine="highest_count", seed=0)


def feed_and_measure(assessor, seed=0):
    peak_entries = 0
    for ap in workload(seed):
        assessor.record(ap)
        peak_entries = max(peak_entries, assessor.entry_count)
    truth = SRIA(JAS5)
    for ap in workload(seed):
        truth.record(ap)
    true_frequent = set(truth.frequent_patterns(THETA))
    found = assessor.frequent_patterns(THETA)
    covered = sum(
        1
        for ap in true_frequent
        if ap in found or any(r.provides_search_benefit_to(ap) for r in found)
    )
    coverage = covered / len(true_frequent) if true_frequent else 1.0
    return peak_entries, coverage


EPSILONS = (0.01, 0.05, 0.1)
METHODS = ("csria", "cdia")


def min_coverage(seed: int = 0) -> float:
    """The lowest θ-coverage over every method and ε on ``workload(seed)``."""
    return min(
        feed_and_measure(make_assessor(method, epsilon), seed)[1]
        for method in METHODS
        for epsilon in EPSILONS
    )


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("method", METHODS)
def test_epsilon_sweep(benchmark, method, epsilon):
    peak_entries, coverage = run_once(
        benchmark, lambda: feed_and_measure(make_assessor(method, epsilon))
    )
    benchmark.extra_info["method"] = method
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["peak_entries"] = peak_entries
    benchmark.extra_info["theta_coverage"] = round(coverage, 3)
    # The heavy-hitter guarantee: everything truly >= theta is covered.
    assert coverage == 1.0


def test_exact_baseline_memory(benchmark):
    """SRIA's table grows with every distinct pattern — the memory pressure
    the compact methods exist to relieve (Section IV-B)."""

    def run():
        sria = SRIA(JAS5)
        for ap in workload():
            sria.record(ap)
        return sria.entry_count

    entries = run_once(benchmark, run)
    benchmark.extra_info["sria_entries"] = entries
    assert entries == 31  # every possible non-full-scan pattern gets a row


def test_compaction_bounds_memory(benchmark):
    """CSRIA's table stays strictly below the full pattern space; CDIA's
    bound is a factor ``h`` (lattice height) weaker — inner nodes survive as
    long as they have live descendants — so it may transiently hold the full
    lattice but must never exceed it."""

    def run():
        cs = CSRIA(JAS5, 0.05)
        cd = CDIA(JAS5, 0.05, combine="highest_count", seed=0)
        cs_peak = cd_peak = 0
        for ap in workload():
            cs.record(ap)
            cd.record(ap)
            cs_peak = max(cs_peak, cs.entry_count)
            cd_peak = max(cd_peak, cd.entry_count)
        return cs_peak, cd_peak

    cs_peak, cd_peak = run_once(benchmark, run)
    benchmark.extra_info["csria_peak"] = cs_peak
    benchmark.extra_info["cdia_peak"] = cd_peak
    assert cs_peak < 31
    assert cd_peak <= 31
