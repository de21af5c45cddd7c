"""The latency/SLO plane end to end: one latency truth in-process and
across the process pool, zero observer effect from an armed
(non-degrading) SLO, and the closed breach→shed loop driven by a
deterministic fault burst.

The capacity-constrained scenario here is deliberate: latency only exists
when the backlog does, so the executor's per-tick budget is set low enough
that requests queue across ticks and the tracker sees real waiting.
"""

import pytest

from repro.engine.resources import DegradationPolicy
from repro.engine.slo import (
    SLO_BREACH,
    LatencyTracker,
    SloMonitor,
    SloSpec,
)
from repro.engine.tracing import EventLog
from repro.experiments.parallel import RunSpec, execute_spec, run_parallel
from repro.workloads.scenarios import PaperScenario, ScenarioParams

TICKS = 40


def backlogged_params(seed=7, capacity=250.0):
    return ScenarioParams(
        stream_names=("A", "B", "C"),
        rate=3,
        window=6,
        phase_len=8,
        domain=8,
        bit_budget=16,
        assess_interval=6,
        capacity=capacity,
        memory_budget=1 << 40,
        seed=seed,
    )


def run_tracked(
    scheme="amri:sria",
    *,
    seed=7,
    capacity=250.0,
    spec_text="p95<=2@12/3",
    faults=None,
    degradation=None,
):
    """One serial run with an armed tracker+monitor; returns all the parts."""
    spec = SloSpec.parse(spec_text)
    scenario = PaperScenario(backlogged_params(seed, capacity))
    log = EventLog()
    tracker = LatencyTracker(threshold=spec.threshold_ticks)
    monitor = SloMonitor(spec)
    sink: list = []
    executor = scenario.make_executor(
        scheme,
        output_sink=sink.extend,
        event_log=log,
        latency=tracker,
        slo=monitor,
        degradation=degradation,
        faults=faults,
        fault_seed=1,
    )
    stats = executor.run(TICKS, scenario.make_generator())
    return stats, tracker, monitor, list(log), len(sink)


class TestLatencyDifferential:
    """The frozen latency snapshot is the same in-process and from a worker."""

    def test_pool_matches_in_process(self):
        spec = RunSpec(
            backlogged_params(),
            "amri:sria",
            TICKS,
            train=False,
            slo="p95<=2@12/3",
        )
        serial = execute_spec(spec)
        pooled = run_parallel([spec, spec], workers=2)[1]
        assert serial.latency is not None
        assert pooled.latency == serial.latency
        assert pooled.latency.count > 0


class TestSloObserverEffect:
    """An armed, non-degrading SLO is a pure observer."""

    @pytest.mark.parametrize("scheme", ["amri:sria", "static"])
    def test_stats_and_outputs_identical_with_armed_slo(self, scheme):
        scenario = PaperScenario(backlogged_params())
        bare_sink: list = []
        bare = scenario.make_executor(scheme, output_sink=bare_sink.extend)
        bare_stats = bare.run(TICKS, scenario.make_generator())

        armed_stats, tracker, monitor, _, armed_outputs = run_tracked(scheme)
        assert armed_stats == bare_stats
        assert armed_outputs == len(bare_sink)
        # And the plane actually measured something while staying invisible.
        assert tracker.count > 0
        assert monitor.burn_rate(12) >= 0.0

    def test_spec_runs_identical_with_and_without_slo(self):
        base = dict(
            params=backlogged_params(),
            scheme="amri:sria",
            ticks=TICKS,
            train=False,
        )
        bare = execute_spec(RunSpec(**base))
        armed = execute_spec(RunSpec(**base, slo="p95<=2@12/3"))
        assert armed.stats == bare.stats
        assert bare.latency is None
        assert armed.latency is not None and armed.latency.count > 0


class TestClosedLoop:
    """Fault burst → breach event → (when armed) degradation shedding."""

    def test_quiet_run_never_breaches(self):
        _, tracker, monitor, events, _ = run_tracked(
            degradation=DegradationPolicy(), spec_text="p95<=2@12/3:degrade"
        )
        assert monitor.breaches == 0
        assert not any(e.kind == SLO_BREACH for e in events)
        assert tracker.shed == 0

    def test_fault_burst_drives_breach_event(self):
        _, _, monitor, events, _ = run_tracked(faults="arrivals")
        breaches = [e for e in events if e.kind == SLO_BREACH]
        assert monitor.breaches >= 1
        assert breaches
        detail = breaches[0].detail
        assert detail["objective"] == "p95<=2@12/3"
        assert any(k.startswith("burn_") for k in detail)
        # Without ':degrade' the loop stays open: observation, no action.
        assert not any(e.kind == "shed" for e in events)

    def test_degrade_spec_closes_the_loop(self):
        _, tracker, monitor, events, _ = run_tracked(
            faults="arrivals",
            degradation=DegradationPolicy(),
            spec_text="p95<=2@12/3:degrade",
        )
        breach_ticks = [e.tick for e in events if e.kind == SLO_BREACH]
        shed_ticks = [e.tick for e in events if e.kind == "shed"]
        assert breach_ticks and shed_ticks
        # The shed response lands in the same tick as the breach that
        # triggered it — the SLO stage invokes the shedder synchronously.
        assert shed_ticks[0] == breach_ticks[0]
        assert tracker.shed > 0

    def test_degrade_spec_without_policy_observes_only(self):
        """':degrade' with no DegradationPolicy attached cannot shed."""
        _, tracker, _, events, _ = run_tracked(
            faults="arrivals", spec_text="p95<=2@12/3:degrade"
        )
        assert any(e.kind == SLO_BREACH for e in events)
        assert not any(e.kind == "shed" for e in events)
        assert tracker.shed == 0
