"""Observers are pure: one conformance matrix over every observer and scheme.

A run's observers — the metrics registry (series and spans), the event
log, the latency tracker and the invariant checker — must never change
what the engine does.  Every cell of {observer} × {scheme family} runs the
same small backlogged scenario under ``arrivals`` faults with the
degradation policy attached (capacity and memory budget are tight enough
that requests queue across ticks and the backlog is shed), and must give
the bare run's ``stats_fingerprint``, output multiset and virtual-clock
total exactly.

The same scenario pins the latency tracker's accounting: every admitted
request ends processed, shed, or still queued at the end of the run.
"""

import functools
import pickle

import pytest

from repro.engine.faults import InvariantChecker
from repro.engine.latency import LatencyTracker
from repro.engine.metrics import MetricsRegistry
from repro.engine.resources import DegradationPolicy
from repro.engine.tracing import EventLog
from repro.experiments.golden import stats_fingerprint
from repro.experiments.parallel import RunSpec, execute_spec, run_parallel
from repro.workloads.scenarios import PaperScenario, ScenarioParams
from tests.integration.test_differential import canonical

TICKS = 40
SCHEMES = ("amri:cdia-highest", "hash:2", "static", "inverted", "scan")
OBSERVERS = {
    "metrics": lambda: {"metrics": MetricsRegistry()},
    "events": lambda: {"event_log": EventLog()},
    "latency": lambda: {"latency": LatencyTracker()},
    "invariants": lambda: {"invariant_checker": InvariantChecker()},
    "all": lambda: {
        "metrics": MetricsRegistry(),
        "event_log": EventLog(),
        "latency": LatencyTracker(),
        "invariant_checker": InvariantChecker(),
    },
}


def backlogged_params(seed=7, capacity=250.0, memory_budget=20_000):
    return ScenarioParams(
        stream_names=("A", "B", "C"),
        rate=3,
        window=6,
        phase_len=8,
        domain=8,
        bit_budget=16,
        assess_interval=6,
        capacity=capacity,
        memory_budget=memory_budget,
        seed=seed,
    )


def run(scheme, **observers):
    """One faulted, degrading run; returns (fingerprint, outputs, clock, executor)."""
    scenario = PaperScenario(backlogged_params())
    sink: list = []
    executor = scenario.make_executor(
        scheme,
        output_sink=sink.extend,
        faults="arrivals",
        fault_seed=1,
        degradation=DegradationPolicy(),
        **observers,
    )
    stats = executor.run(TICKS, scenario.make_generator())
    return stats_fingerprint(stats), canonical(sink), executor.meter.total_spent, executor


@functools.cache
def bare(scheme):
    fingerprint, outputs, clock, _ = run(scheme)
    return fingerprint, outputs, clock


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_observer_changes_nothing(scheme, observer):
    attached = OBSERVERS[observer]()
    fingerprint, outputs, clock, executor = run(scheme, **attached)
    assert (fingerprint, outputs, clock) == bare(scheme)
    stats = executor.stats
    assert stats.shed_tuples > 0  # the cell exercises the degradation path
    registry = attached.get("metrics")
    if registry is not None:
        snap = registry.snapshot()
        # Bit for bit: the registry replays the meter's accumulation order.
        assert snap.cost_total == executor.meter.total_spent
        series_sum = snap.sum_values("cost_units_total")
        assert abs(series_sum - snap.cost_total) <= 1e-9 * max(snap.cost_total, 1.0)
    tracker = attached.get("latency")
    if tracker is not None:
        lat = tracker.snapshot()
        assert lat.count + lat.shed + lat.unfinished == stats.source_tuples
        assert lat.shed == stats.shed_tuples


class TestLatencyAccounting:
    """Every admitted request is counted once: processed, shed or unfinished."""

    def test_backlogged_run_counts_the_requests_still_queued(self):
        scenario = PaperScenario(backlogged_params(memory_budget=1 << 40))
        tracker = LatencyTracker()
        executor = scenario.make_executor("amri:sria", latency=tracker)
        stats = executor.run(TICKS, scenario.make_generator())
        snap = tracker.snapshot()
        assert snap.unfinished == executor.backlog > 0
        assert snap.count + snap.shed + snap.unfinished == stats.source_tuples
        # The oldest queued request has waited longer than most processed ones.
        assert snap.unfinished_max_wait >= snap.quantile(0.5)

    def test_run_that_dies_counts_its_backlog(self):
        scenario = PaperScenario(ScenarioParams(seed=41))
        tracker = LatencyTracker()
        executor = scenario.make_executor(
            "scan", capacity=100.0, memory_budget=150_000, latency=tracker
        )
        stats = executor.run(200, scenario.make_generator())
        snap = tracker.snapshot()
        assert stats.died_at is not None
        assert snap.unfinished > 0
        assert snap.count + snap.shed + snap.unfinished == stats.source_tuples
        assert snap.unfinished_max_wait <= stats.died_at


def faulted_spec(**collect):
    return RunSpec(
        backlogged_params(),
        "amri:sria",
        TICKS,
        train=False,
        faults="arrivals",
        degrade=True,
        **collect,
    )


@functools.cache
def observed_outcomes():
    """(in-process, pooled) outcomes of the same spec with both snapshots on."""
    spec = faulted_spec(collect_metrics=True, collect_latency=True)
    return execute_spec(spec), run_parallel([spec, spec], workers=2)[1]


class TestPoolDeterminism:
    """A worker's outcome, snapshots included, is the in-process outcome."""

    def test_pool_equals_serial_with_metrics(self):
        serial, pooled = observed_outcomes()
        assert pooled.stats == serial.stats
        assert pooled.metrics == serial.metrics and serial.metrics.cost_total > 0

    def test_pool_matches_in_process_latency(self):
        serial, pooled = observed_outcomes()
        assert pooled.latency == serial.latency and serial.latency.count > 0

    def test_outcome_with_snapshots_is_picklable(self):
        serial, _ = observed_outcomes()
        clone = pickle.loads(pickle.dumps(serial))
        assert (clone.metrics, clone.latency) == (serial.metrics, serial.latency)
        assert clone.metrics.spans == serial.metrics.spans

    def test_spec_runs_identical_with_and_without_snapshots(self):
        serial, _ = observed_outcomes()
        bare_outcome = execute_spec(faulted_spec())
        assert bare_outcome.stats == serial.stats
        assert bare_outcome.metrics is None and bare_outcome.latency is None
