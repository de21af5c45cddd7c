"""Ablation: graceful degradation (``--degrade``).

Under the paper's resource pressure most multi-hash trials die of memory
(Section V).  With ``degrade=True``, memory pressure sheds the oldest
backlog and falls back from index structures to scans instead
(:class:`~repro.engine.kernel.ShedDegradeStage`).  The claim reads ``validate``'s run
set: every scheme whose plain run dies completes the run with
``degrade=True`` and ends with strictly more outputs.
"""

from dataclasses import replace
from functools import cache

from benchmarks.conftest import BENCH_SEED, run_once
from repro.engine.stats import RunStats
from repro.experiments.parallel import RunSpec, run_parallel
from repro.experiments.reporting import improvement_pct
from repro.experiments.validate import CLAIM_SCHEMES
from repro.workloads.scenarios import ScenarioParams

TICKS = 600
TRAIN_TICKS = 100


@cache
def degrade_runs(seed: int) -> dict[str, tuple[RunStats, RunStats]]:
    """Every scheme of ``CLAIM_SCHEMES`` whose run dies at ``seed``
    (600 ticks after 100 training ticks), with its plain and its
    ``degrade=True`` stats; scheme → (plain, degraded)."""
    specs = [
        RunSpec(ScenarioParams(seed=seed), s, TICKS, train_ticks=TRAIN_TICKS)
        for s in CLAIM_SCHEMES
    ]
    plain = {spec.scheme: outcome.stats for spec, outcome in zip(specs, run_parallel(specs))}
    dying = [replace(spec, degrade=True) for spec in specs if not plain[spec.scheme].completed]
    return {
        spec.scheme: (plain[spec.scheme], outcome.stats)
        for spec, outcome in zip(dying, run_parallel(dying))
    }


def degrade_gain(seed: int) -> tuple[float, bool, str]:
    """The smallest outputs gain in % over the schemes that die at ``seed``;
    holds when at least one dies and each completes with more outputs."""
    runs = degrade_runs(seed)
    gains = {s: improvement_pct(d.outputs, p.outputs) for s, (p, d) in runs.items()}
    holds = bool(runs) and all(d.completed and d.outputs > p.outputs for p, d in runs.values())
    if not runs:
        return 0.0, False, "no scheme dies"
    worst = min(gains, key=gains.__getitem__)
    plain, degraded = runs[worst]
    return (
        gains[worst],
        holds,
        f"dying {','.join(runs)}; least gain {worst} {degraded.outputs} vs {plain.outputs}",
    )


def test_degrade_lets_dying_runs_live(benchmark):
    runs = run_once(benchmark, degrade_runs, BENCH_SEED)
    benchmark.extra_info["dying"] = list(runs)
    benchmark.extra_info["outputs"] = {
        s: [p.outputs, d.outputs] for s, (p, d) in runs.items()
    }
    assert runs
    for scheme, (plain, degraded) in runs.items():
        assert degraded.completed, scheme
        assert degraded.outputs > plain.outputs, scheme
