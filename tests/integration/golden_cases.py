"""The golden corpus's case matrix and its runner.

One case is a :class:`~repro.experiments.parallel.RunSpec` plus, for a
faulted case, a fault profile and fault seed that the fault harness
(:mod:`tests.faults`) injects around ``kernel.step``.  :func:`run_case`
fingerprints one case with :mod:`repro.experiments.golden`;
``tools/gen_golden_equivalence.py`` writes :func:`run_all` to
``golden_equivalence.json.gz``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from repro.experiments.golden import (
    events_fingerprint,
    json_pure,
    snapshot_fingerprint,
    stats_fingerprint,
)
from repro.experiments.parallel import RunSpec
from repro.workloads.scenarios import ScenarioParams, scenario_params
from tests.faults import FAULT_PROFILES, execute_faulted


@dataclass(frozen=True)
class Case:
    """One golden case: the spec, and the fault profile injected around it."""

    spec: RunSpec
    faults: str = "none"
    fault_seed: int = 0


def _case(
    params: ScenarioParams,
    scheme: str,
    ticks: int,
    *,
    faults: str = "none",
    fault_seed: int = 0,
    degrade: bool = False,
) -> Case:
    """One case: an untrained run with a metrics registry attached."""
    spec = RunSpec(params, scheme, ticks, train=False, degrade=degrade, collect_metrics=True)
    return Case(spec, faults, fault_seed)


@functools.cache
def cases() -> dict[str, Case]:
    """The committed matrix, name → case: every scheme family, clean and
    faulted runs, the graceful-degradation path (shed + degrade), an OOM
    death, and both the full 4-way paper scenario and the sensor extension
    scenario, all at seed 7.  A case that starves the engine sets the
    scenario's ``capacity`` / ``memory_budget`` (only the meter reads them).

    Built on first use, not at import: constructing a spec validates it by
    building its stems.
    """
    small = scenario_params("paper-small", 7)
    return {
        "paper3_amri_clean": _case(small, "amri:cdia-highest", 60),
        "paper3_amri_sria_tuning_faults": _case(
            small, "amri:sria", 60, faults="tuning", fault_seed=11
        ),
        "paper3_hash_arrival_faults": _case(
            small, "hash:2", 60, faults="arrivals", fault_seed=3
        ),
        # Backlog builds (capacity-starved) until shedding kicks in; survives.
        "paper3_scan_shed_survives": _case(
            replace(small, capacity=400.0, memory_budget=10_000), "scan", 80, degrade=True
        ),
        # Chaos bursts push past the budget: every state degrades to scan,
        # then the run still dies — the full remedy ladder.
        "paper3_static_chaos_degrade_death": _case(
            replace(small, capacity=1_200.0, memory_budget=13_000), "static", 80,
            faults="chaos", fault_seed=5, degrade=True,
        ),
        # Transient memory squeezes force degradation but the run survives.
        "paper3_inverted_squeeze_degrade": _case(
            replace(small, capacity=1_200.0, memory_budget=14_000), "inverted", 80,
            faults="memory", fault_seed=9, degrade=True,
        ),
        # No degradation policy: the paper's plain out-of-memory death.
        "paper3_scan_memory_death": _case(
            replace(small, capacity=400.0, memory_budget=6_000), "scan", 80
        ),
        "paper4_amri_default": _case(scenario_params("paper", 7), "amri:cdia-highest", 50),
        "sensor_amri_clean": _case(scenario_params("sensor", 7), "amri:cdia-highest", 50),
    }


def run_case(name: str) -> dict:
    """Execute one named case and fingerprint the run: stats, events,
    metrics snapshot, and the meter's own clock total (kept apart from the
    registry's ``cost_total``)."""
    case = cases()[name]
    outcome = execute_faulted(
        case.spec, FAULT_PROFILES[case.faults], fault_seed=case.fault_seed
    )
    return json_pure(
        {
            "stats": stats_fingerprint(outcome.stats),
            "events": events_fingerprint(outcome.events),
            "metrics": snapshot_fingerprint(outcome.metrics),
            "meter_total": outcome.meter_total,
        }
    )


def run_all() -> dict[str, dict]:
    """Fingerprint the whole matrix, keyed by case name."""
    return {name: run_case(name) for name in cases()}
