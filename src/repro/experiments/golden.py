"""Golden-equivalence fingerprinting of engine runs.

The staged-kernel refactor (``repro.engine.kernel``) carries a hard
promise: for every scenario × index scheme × fault profile, the pipeline
of explicit stages produces **byte-identical** results to the monolithic
executor it replaced — the same :class:`~repro.engine.stats.RunStats`
(including every float in every throughput sample), the same event log,
and the same metrics snapshot (every labelled series, every histogram
bucket, every span).

This module defines the case matrix — one
:class:`~repro.experiments.parallel.RunSpec` per case, executed by
:func:`~repro.experiments.parallel.execute_spec` like every other run —
and turns one run into a pure-JSON *fingerprint*: only lists, dicts,
strings, numbers, bools, and ``None``, so a fingerprint compares equal to
its own JSON round-trip (Python floats round-trip exactly through
``json``).  The committed golden file
``tests/integration/golden_equivalence.json`` was generated from the
pre-refactor monolith by ``tools/gen_golden_equivalence.py``;
``tests/integration/test_golden_equivalence.py`` re-runs the matrix on
every test run and compares for exact equality.

Regenerating the goldens is only legitimate when run semantics change *on
purpose* (a new cost term, a changed tick order); a refactor must never
need it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import replace

from repro.engine.metrics import RegistrySnapshot
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent
from repro.experiments.parallel import RunSpec, execute_spec
from repro.workloads.scenarios import ScenarioParams, scenario_params


def _case(params: ScenarioParams, scheme: str, ticks: int, **modes) -> RunSpec:
    """One case: an untrained run with a metrics registry attached."""
    return RunSpec(params, scheme, ticks, train=False, collect_metrics=True, **modes)


@functools.cache
def cases() -> dict[str, RunSpec]:
    """The committed matrix, name → spec: every scheme family, clean and
    faulted runs, the graceful-degradation path (shed + degrade), an OOM
    death, and both the full 4-way paper scenario and the sensor extension
    scenario, all at seed 7.  A case that starves the engine sets the
    scenario's ``capacity`` / ``memory_budget`` (only the meter reads them).

    Built on first use, not at import: constructing a spec validates it by
    building its stems, and importing this module (for
    :func:`stats_fingerprint`) must stay cheap.
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


# --------------------------------------------------------------------- #
# fingerprinting


def stats_fingerprint(stats: RunStats) -> dict:
    """Every RunStats field, JSON-pure (floats round-trip exactly)."""
    return {
        "outputs": stats.outputs,
        "source_tuples": stats.source_tuples,
        "filtered": stats.filtered,
        "probes": stats.probes,
        "matches": stats.matches,
        "migrations": stats.migrations,
        "tuning_rounds": stats.tuning_rounds,
        "faults_injected": stats.faults_injected,
        "shed_tuples": stats.shed_tuples,
        "degradations": stats.degradations,
        "died_at": stats.died_at,
        "death_reason": stats.death_reason,
        "samples": [
            [s.tick, s.outputs, s.cost_spent, s.memory_bytes, s.backlog]
            for s in stats.samples
        ],
    }


def events_fingerprint(events: Iterable[EngineEvent]) -> list:
    """The event timeline with detail dicts flattened to sorted pairs."""
    return [
        [e.tick, e.kind, e.stream, sorted((str(k), v) for k, v in e.detail.items())]
        for e in events
    ]


def snapshot_fingerprint(snapshot: RegistrySnapshot) -> dict:
    """Every series, span, and the chronological cost total."""
    series = []
    for s in snapshot.series:
        series.append(
            {
                "name": s.name,
                "kind": s.kind,
                "labels": [list(pair) for pair in s.labels],
                "value": s.value,
                "buckets": [[le, n] for le, n in s.buckets],
                "total": s.total,
                "count": s.count,
            }
        )
    spans = [
        {
            "span_id": sp.span_id,
            "name": sp.name,
            "start_tick": sp.start_tick,
            "end_tick": sp.end_tick,
            "parent_id": sp.parent_id,
            "attrs": [[str(k), v] for k, v in sp.attrs],
        }
        for sp in snapshot.spans
    ]
    return {
        "cost_total": snapshot.cost_total,
        "series": series,
        "spans": spans,
        "spans_dropped": snapshot.spans_dropped,
    }


def json_pure(value):
    """Normalise to the types ``json.load`` produces (tuples → lists),
    so fingerprints compare equal to their committed round-trip."""
    import json

    return json.loads(json.dumps(value))


def run_case(name: str) -> dict:
    """Execute one named case and fingerprint the run: stats, events,
    metrics snapshot, and the meter's own clock total (kept apart from the
    registry's ``cost_total``)."""
    outcome = execute_spec(cases()[name])
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
