"""Lazy-vs-eager differential suite: cracking never changes an observable.

The tiered lazy-admission pipeline (:mod:`repro.storage.crack`) promises
that deferring index structure work is *purely* a wall-clock optimisation:
with ``lazy_index=True`` every join result, every ``RunStats`` float, every
event, every virtual-clock charge, and every pre-existing metrics series is
bit-identical to the eager run.  The only new observables are the crack
telemetry series themselves (``crack_*`` gauges/counters), which exist only
on lazy runs and are excluded from the comparison.

Held four ways:

- a deterministic matrix over **all five index backends** comparing full
  run fingerprints;
- the same identity across **hash-partitioned** engines (2 kernels);
- a replay of the **committed golden corpus** with lazy admission on —
  stats, events, and the meter total must match the pre-refactor monolith
  byte-for-byte (the corpus is NOT regenerated for this feature);
- a seeded hypothesis sweep combining lazy admission with memory-squeeze
  and forced-migration fault profiles, asserting the scan-oracle output
  differential and the accountant invariant (attributed cost == clock).
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import MetricsRegistry
from repro.engine.tracing import EventLog
from repro.experiments.golden import (
    CASES,
    events_fingerprint,
    run_case,
    snapshot_fingerprint,
    stats_fingerprint,
)
from repro.experiments.parallel import RunSpec, execute_spec
from repro.workloads.scenarios import PaperScenario, ScenarioParams

#: scheme -> backend it exercises (all five registered index backends).
SCHEMES = {
    "amri:sria": "bit_address",
    "static": "static_bitmap",
    "hash:2": "multi_hash",
    "inverted": "inverted",
    "scan": "scan",
}

TICKS = 12

GOLDEN_PATH = Path(__file__).parent / "golden_equivalence.json.gz"


def small_params(seed: int) -> ScenarioParams:
    return ScenarioParams(
        stream_names=("A", "B", "C"),
        rate=2,
        window=4,
        phase_len=5,
        domain=6,
        bit_budget=16,
        assess_interval=4,
        capacity=1e12,
        memory_budget=1 << 40,
        seed=seed,
    )


def filtered_snapshot_fingerprint(snapshot) -> dict:
    """The metrics fingerprint minus the lazy-only ``crack_*`` series.

    Everything else — every shared series, histogram bucket, span, and the
    chronological cost total — must still match the eager run exactly.
    """
    fp = snapshot_fingerprint(snapshot)
    fp["series"] = [s for s in fp["series"] if not s["name"].startswith("crack_")]
    return fp


def canonical_outputs(outputs) -> Counter:
    """Order/identity-independent multiset of emitted join results."""
    return Counter(
        frozenset(
            (src.stream, src.arrived_at, tuple(sorted(src.items())))
            for src in joined.sources
        )
        for joined in outputs
    )


def run_fingerprint(seed: int, scheme: str, **overrides) -> dict:
    """One full-observability run, reduced to a comparable fingerprint."""
    scenario = PaperScenario(small_params(seed))
    sink: list = []
    log = EventLog()
    registry = MetricsRegistry()
    executor = scenario.make_executor(
        scheme,
        output_sink=sink.extend,
        event_log=log,
        metrics=registry,
        **overrides,
    )
    stats = executor.run(TICKS, scenario.make_generator())
    return {
        "outputs": canonical_outputs(sink),
        "stats": stats_fingerprint(stats),
        "events": events_fingerprint(log),
        "metrics": filtered_snapshot_fingerprint(registry.snapshot()),
        "meter_total": executor.meter.total_spent,
    }


def assert_identical(eager: dict, lazy: dict, context: str) -> None:
    """Component-wise equality with a readable failure location."""
    for key in eager:
        assert lazy[key] == eager[key], f"{context}: {key} diverged"


# --------------------------------------------------------------------- #
# deterministic matrix: 5 backends


@pytest.fixture(scope="module")
def eager_runs():
    """Eager fingerprints per scheme, computed once for the matrix."""
    return {scheme: run_fingerprint(7, scheme) for scheme in SCHEMES}


class TestBackendMatrix:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_lazy_matches_eager(self, eager_runs, scheme):
        lazy = run_fingerprint(7, scheme, lazy_index=True)
        assert_identical(eager_runs[scheme], lazy, f"{scheme} ({SCHEMES[scheme]}) lazy")

    def test_matrix_is_not_vacuous(self, eager_runs):
        """The workload actually joins, probes, and spends."""
        for scheme, fp in eager_runs.items():
            assert fp["stats"]["probes"] > 0, scheme
            assert fp["meter_total"] > 0, scheme
        assert any(sum(fp["outputs"].values()) > 0 for fp in eager_runs.values())

    def test_lazy_runs_really_crack(self):
        """The lazy matrix is not vacuously eager: on a multi-bucket backend
        tuples genuinely sit in the pending tier and promotions happen."""
        scenario = PaperScenario(small_params(7))
        executor = scenario.make_executor("amri:sria", lazy_index=True)
        executor.run(TICKS, scenario.make_generator())
        telem = [stem.crack_telemetry() for stem in executor.stems.values()]
        assert all(t["cache_misses"] > 0 for t in telem)
        assert any(t["promotions"] > 0 or t["pending"] > 0 for t in telem)


# --------------------------------------------------------------------- #
# hash-partitioned engines


class TestPartitionedLazy:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("partitions", (1, 2))
    def test_lazy_matches_eager_partitioned(self, scheme, partitions):
        spec = dict(
            params=small_params(7),
            scheme=scheme,
            ticks=TICKS,
            train=False,
            partitions=partitions,
            collect_metrics=True,
        )
        eager = execute_spec(RunSpec(**spec))
        lazy = execute_spec(RunSpec(**spec, lazy_index=True))
        context = f"{scheme} partitions={partitions}"
        assert stats_fingerprint(lazy.stats) == stats_fingerprint(eager.stats), context
        assert lazy.events == eager.events, context
        assert filtered_snapshot_fingerprint(
            lazy.metrics
        ) == filtered_snapshot_fingerprint(eager.metrics), context


# --------------------------------------------------------------------- #
# the committed golden corpus replays bit-identically with lazy on


def _golden() -> dict:
    return json.loads(gzip.decompress(GOLDEN_PATH.read_bytes()).decode())


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_golden_corpus_replays_with_lazy_index(case):
    """Stats, events, and the virtual-clock total of every committed golden
    case are unchanged by lazy admission (metrics gain crack series and are
    compared by the main golden suite on eager runs)."""
    golden = _golden()[case.name]
    lazy = run_case(case, lazy_index=True)
    assert lazy["stats"] == golden["stats"], case.name
    assert lazy["events"] == golden["events"], case.name
    assert lazy["meter_total"] == golden["meter_total"], case.name


# --------------------------------------------------------------------- #
# seeded sweep: lazy × {memory squeeze, forced migrations} faults


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    fault_seed=st.integers(0, 10_000),
    faults=st.sampled_from(["memory", "tuning"]),
)
def test_lazy_under_faults_matches_scan_oracle(seed, fault_seed, faults):
    """Lazy admission under memory-squeeze / forced-migration faults: the
    join outputs still equal the unindexed scan oracle's on the same
    arrivals, and on every run the metrics registry's attributed cost total
    equals the virtual clock exactly (the accountant invariant)."""
    scenario = PaperScenario(small_params(seed))
    results = {}
    for scheme in ("scan", "amri:sria", "hash:2", "inverted"):
        sink: list = []
        registry = MetricsRegistry()
        executor = scenario.make_executor(
            scheme,
            output_sink=sink.extend,
            metrics=registry,
            faults=faults,
            fault_seed=fault_seed,
            lazy_index=True,
            migration_budget=2,
        )
        executor.run(TICKS, scenario.make_generator())
        snapshot = registry.snapshot()
        assert snapshot.cost_total == executor.meter.total_spent, (
            f"{scheme}: attribution does not reconcile with the clock"
        )
        results[scheme] = canonical_outputs(sink)
    oracle = results.pop("scan")
    for scheme, outputs in results.items():
        assert outputs == oracle, f"{scheme} diverged from the scan oracle"
