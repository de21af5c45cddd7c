"""Figure 7 (AMRI vs best hash configuration).

Paper claim: AMRI produces ~93% more results than even the best hash-index
configuration over the same period (the best trial also dies early, which
is most of the gap).  We regenerate the comparison and assert the shape:
AMRI wins by a wide margin (>30% at benchmark scale).
"""

from benchmarks.conftest import BENCH_TICKS_LONG, run_once, run_trained
from repro.experiments.reporting import improvement_pct

KS = (1, 2, 3, 4, 5, 6, 7)


def test_fig7_amri_vs_best_hash(benchmark, bench_scenario, bench_training):
    def compare():
        hash_runs = {
            k: run_trained(bench_scenario.params, f"hash:{k}", BENCH_TICKS_LONG, bench_training)
            for k in KS
        }
        amri = run_trained(
            bench_scenario.params, "amri:cdia-highest", BENCH_TICKS_LONG, bench_training
        )
        return hash_runs, amri

    hash_runs, amri = run_once(benchmark, compare)
    best_k = max(hash_runs, key=lambda k: hash_runs[k].outputs)
    best = hash_runs[best_k]
    pct = improvement_pct(amri.outputs, best.outputs)
    benchmark.extra_info["best_hash_k"] = best_k
    benchmark.extra_info["amri_outputs"] = amri.outputs
    benchmark.extra_info["best_hash_outputs"] = best.outputs
    benchmark.extra_info["improvement_pct"] = round(pct, 1)
    benchmark.extra_info["paper_improvement_pct"] = 93.0

    assert amri.completed
    assert pct > 30.0, f"AMRI only {pct:.0f}% ahead of best hash (paper: ~93%)"
