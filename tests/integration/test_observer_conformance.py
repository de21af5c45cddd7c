"""Observers are pure: one conformance matrix over every observer and scheme.

A run's observers — the metrics registry (series and spans), the event
log, and the invariant checker the fault harness calls between steps —
must never change what the engine does.  Every cell of {observer} ×
{scheme family} runs the same small backlogged scenario through the fault
harness under ``arrivals`` faults with ``degrade`` set
(capacity and memory budget are tight enough that requests queue across
ticks and the backlog is shed), and must give the bare run's
``stats_fingerprint``, output multiset and virtual-clock total exactly.
"""

import functools
import pickle

import pytest

from repro.engine.metrics import COST_METRIC, MetricsRegistry
from repro.engine.tracing import EventLog
from repro.experiments.golden import stats_fingerprint
from repro.experiments.parallel import RunSpec, execute_spec, reconciles, run_parallel
from repro.workloads.scenarios import PaperScenario, ScenarioParams, scenario_params
from tests.faults import FAULT_PROFILES, InvariantChecker, drive
from tests.integration.test_differential import canonical

TICKS = 40
SCHEMES = ("amri:cdia-highest", "hash:2", "static", "inverted", "scan")
OBSERVERS = {
    "metrics": lambda: {"metrics": MetricsRegistry()},
    "events": lambda: {"event_log": EventLog()},
    "invariants": lambda: {"checker": InvariantChecker()},
    "all": lambda: {
        "metrics": MetricsRegistry(),
        "event_log": EventLog(),
        "checker": InvariantChecker(),
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


def run(scheme, checker=None, **observers):
    """One faulted, degrading run; returns (fingerprint, outputs, clock, executor)."""
    scenario = PaperScenario(backlogged_params())
    sink: list = []
    executor = scenario.make_executor(
        scheme,
        output_sink=sink.extend,
        degrade=True,
        **observers,
    )
    stats = drive(
        executor,
        TICKS,
        scenario.make_generator(),
        FAULT_PROFILES["arrivals"],
        fault_seed=1,
        checker=checker,
    )
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
    assert stats.faults_injected > 0
    checker = attached.get("checker")
    if checker is not None:
        assert checker.ticks_checked == TICKS
    registry = attached.get("metrics")
    if registry is not None:
        # Bit for bit: the registry replays the meter's accumulation order.
        assert reconciles(registry.snapshot(), executor.meter.total_spent)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_metrics_run_records_only_the_cost_ledger(scheme):
    """The registry keeps the cost ledger and the span ring, nothing else:
    totals are RunStats', discrete facts are events and index operations
    are the accountants'.  ``degrade`` is armed, as ``--degrade`` arms it."""
    spec = RunSpec(
        scenario_params("paper-small", 7), scheme, 60,
        train=False, degrade=True, collect_metrics=True,
    )
    outcome = execute_spec(spec)
    snapshot = outcome.metrics
    assert snapshot.series and snapshot.spans
    assert {s.name for s in snapshot.series} == {COST_METRIC}
    assert reconciles(snapshot, outcome.meter_total)


def degrading_spec(**collect):
    return RunSpec(backlogged_params(), "amri:sria", TICKS, train=False, degrade=True, **collect)


@functools.cache
def observed_outcomes():
    """(in-process, pooled) outcomes of the same spec with metrics on."""
    spec = degrading_spec(collect_metrics=True)
    return execute_spec(spec), run_parallel([spec, spec], workers=2)[1]


class TestPoolDeterminism:
    """A worker's outcome, snapshots included, is the in-process outcome."""

    def test_pool_equals_serial_with_metrics(self):
        serial, pooled = observed_outcomes()
        assert pooled.stats == serial.stats
        assert pooled.metrics == serial.metrics and serial.metrics.cost_total > 0

    def test_outcome_with_snapshots_is_picklable(self):
        serial, _ = observed_outcomes()
        clone = pickle.loads(pickle.dumps(serial))
        assert clone.metrics == serial.metrics
        assert clone.metrics.spans == serial.metrics.spans

    def test_spec_runs_identical_with_and_without_snapshots(self):
        serial, _ = observed_outcomes()
        bare_outcome = execute_spec(degrading_spec())
        assert bare_outcome.stats == serial.stats
        assert bare_outcome.metrics is None
