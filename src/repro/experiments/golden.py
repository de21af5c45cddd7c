"""Golden-equivalence fingerprinting of engine runs.

The staged-kernel refactor (``repro.engine.kernel``) carries a hard
promise: for every scenario × index scheme × fault profile, the pipeline
of explicit stages produces **byte-identical** results to the monolithic
executor it replaced — the same :class:`~repro.engine.stats.RunStats`
(including every float in every throughput sample), the same event log,
and the same metrics snapshot (every labelled series, every histogram
bucket, every span).

This module defines the case matrix and turns one run into a pure-JSON
*fingerprint* — only lists, dicts, strings, numbers, bools, and ``None``,
so a fingerprint compares equal to its own JSON round-trip (Python floats
round-trip exactly through ``json``).  The committed golden file
``tests/integration/golden_equivalence.json`` was generated from the
pre-refactor monolith by ``tools/gen_golden_equivalence.py``;
``tests/integration/test_golden_equivalence.py`` re-runs the matrix on
every test run and compares for exact equality.

Regenerating the goldens is only legitimate when run semantics change *on
purpose* (a new cost term, a changed tick order); a refactor must never
need it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.metrics import MetricsRegistry, RegistrySnapshot
from repro.engine.resources import DegradationPolicy
from repro.engine.stats import RunStats
from repro.engine.tracing import EventLog
from repro.workloads.scenarios import PaperScenario, scenario_params


@dataclass(frozen=True)
class GoldenCase:
    """One cell of the equivalence matrix, fully described by value."""

    name: str
    scenario: str  # "paper-small" | "paper" | "sensor"
    scheme: str
    ticks: int
    seed: int = 7
    faults: str | None = None  # FAULT_PROFILES name
    fault_seed: int = 0
    degrade: bool = False
    capacity: float | None = None
    memory_budget: int | None = None


#: The committed matrix: every scheme family, clean and faulted runs, the
#: graceful-degradation path (shed + degrade), an OOM death, and both the
#: full 4-way paper scenario and the sensor extension scenario.
CASES: tuple[GoldenCase, ...] = (
    GoldenCase("paper3_amri_clean", "paper-small", "amri:cdia-highest", 60),
    GoldenCase("paper3_amri_sria_tuning_faults", "paper-small", "amri:sria", 60,
               faults="tuning", fault_seed=11),
    GoldenCase("paper3_hash_arrival_faults", "paper-small", "hash:2", 60,
               faults="arrivals", fault_seed=3),
    # Backlog builds (capacity-starved) until shedding kicks in; survives.
    GoldenCase("paper3_scan_shed_survives", "paper-small", "scan", 80,
               degrade=True, capacity=400.0, memory_budget=10_000),
    # Chaos bursts push past the budget: every state degrades to scan,
    # then the run still dies — the full remedy ladder.
    GoldenCase("paper3_static_chaos_degrade_death", "paper-small", "static", 80,
               faults="chaos", fault_seed=5, degrade=True, capacity=1_200.0,
               memory_budget=13_000),
    # Transient memory squeezes force degradation but the run survives.
    GoldenCase("paper3_inverted_squeeze_degrade", "paper-small", "inverted", 80,
               faults="memory", fault_seed=9, degrade=True, capacity=1_200.0,
               memory_budget=14_000),
    # No degradation policy: the paper's plain out-of-memory death.
    GoldenCase("paper3_scan_memory_death", "paper-small", "scan", 80,
               capacity=400.0, memory_budget=6_000),
    GoldenCase("paper4_amri_default", "paper", "amri:cdia-highest", 50),
    GoldenCase("sensor_amri_clean", "sensor", "amri:cdia-highest", 50),
)


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


def events_fingerprint(log: EventLog) -> list:
    """The event timeline with detail dicts flattened to sorted pairs."""
    return [
        [e.tick, e.kind, e.stream, sorted((str(k), v) for k, v in e.detail.items())]
        for e in log
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


def run_case(case: GoldenCase) -> dict:
    """Execute one case and fingerprint the run."""
    scenario = PaperScenario(scenario_params(case.scenario, case.seed))
    log = EventLog()
    registry = MetricsRegistry()
    executor = scenario.make_executor(
        case.scheme,
        capacity=case.capacity,
        memory_budget=case.memory_budget,
        event_log=log,
        metrics=registry,
        faults=case.faults,
        fault_seed=case.fault_seed,
        degradation=DegradationPolicy() if case.degrade else None,
    )
    stats = executor.run(case.ticks, scenario.make_generator())
    return json_pure(
        {
            "stats": stats_fingerprint(stats),
            "events": events_fingerprint(log),
            "metrics": snapshot_fingerprint(registry.snapshot()),
            "meter_total": executor.meter.total_spent,
        }
    )


def run_all() -> dict[str, dict]:
    """Fingerprint the whole matrix, keyed by case name."""
    return {case.name: run_case(case) for case in CASES}
