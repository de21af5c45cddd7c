"""Golden-equivalence fingerprinting of engine runs.

The golden corpus (``tests/integration/golden_equivalence.json.gz``) holds
the engine to byte-identical results across refactors: the same
:class:`~repro.engine.stats.RunStats` (including every float in every
throughput sample), the same event log, and the same metrics snapshot
(every cost series and the chronological cost total).

This module turns one run into a pure-JSON *fingerprint*: only lists,
dicts, strings, numbers, bools, and ``None``, so a fingerprint compares
equal to its own JSON round-trip (Python floats round-trip exactly
through ``json``).  The case matrix and its runner live with the test
suite (``tests/integration/golden_cases.py``); the benchmark child
fingerprints its runs' stats with :func:`stats_fingerprint` too.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.metrics import RegistrySnapshot
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent


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
    """Every cost series and the chronological cost total."""
    series = [
        {
            "name": s.name,
            "kind": "counter",
            "labels": [list(pair) for pair in s.labels],
            "value": s.value,
        }
        for s in snapshot.series
    ]
    return {"cost_total": snapshot.cost_total, "series": series}


def json_pure(value):
    """Normalise to the types ``json.load`` produces (tuples → lists),
    so fingerprints compare equal to their committed round-trip."""
    import json

    return json.loads(json.dumps(value))
