"""Tests for deterministic fault injection, graceful degradation, and the
invariant checker (the fault harness of ``tests/faults.py``)."""

import pytest

from repro.core.access_pattern import JoinAttributeSet
from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.tuner import NullTuner
from repro.engine.resources import DegradationPolicy
from repro.engine.tracing import EventLog
from repro.engine.tuples import StreamTuple
from repro.indexes.scan_index import ScanIndex
from repro.storage import StateStore
from repro.workloads.scenarios import PaperScenario, ScenarioParams
from tests.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    InvariantViolation,
    drive,
)

STREAMS = ("A", "B")


def arrivals_at(tick, n=4):
    return [StreamTuple(s, tick, {"k": i}) for s in STREAMS for i in range(n)]


def perturb(injector, ticks=30, n=4, log=None):
    """Run the injector standalone over a synthetic arrival stream."""
    delivered = []
    for tick in range(ticks):
        injector.begin_tick(tick, log)
        delivered.append(injector.perturb_arrivals(tick, arrivals_at(tick, n)))
    return delivered


class TestFaultPlan:
    def test_all_zero_plan_is_disabled(self):
        assert not FaultPlan().enabled

    def test_any_probability_enables(self):
        assert FaultPlan(drop_prob=0.1).enabled

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(burst_prob=1.5)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            FaultPlan(burst_len=0)

    def test_profiles_resolve(self):
        """Every profile is a plan, and only ``none`` injects nothing."""
        for name, plan in FAULT_PROFILES.items():
            assert isinstance(plan, FaultPlan)
            assert plan.enabled == (name != "none"), name


class TestFaultTypes:
    def test_stall_suppresses_arrivals(self):
        inj = FaultInjector(FaultPlan(stall_prob=1.0, stall_len=3), STREAMS, seed=1)
        delivered = perturb(inj, ticks=3)
        assert all(batch == [] for batch in delivered)

    def test_burst_replicates_arrivals(self):
        inj = FaultInjector(
            FaultPlan(burst_prob=1.0, burst_factor=3, burst_len=5), STREAMS, seed=1
        )
        delivered = perturb(inj, ticks=2, n=2)
        # Every arrival appears burst_factor times, values preserved.
        assert all(len(batch) == 2 * 2 * 3 for batch in delivered)
        ks = sorted(int(t["k"]) for t in delivered[0] if t.stream == "A")
        assert ks == [0, 0, 0, 1, 1, 1]

    def test_drop_loses_everything_at_prob_one(self):
        inj = FaultInjector(FaultPlan(drop_prob=1.0), STREAMS, seed=1)
        delivered = perturb(inj, ticks=4)
        assert all(batch == [] for batch in delivered)

    def test_delay_redelivers_restamped(self):
        inj = FaultInjector(FaultPlan(delay_prob=1.0, delay_ticks=2), STREAMS, seed=1)
        delivered = perturb(inj, ticks=5, n=1)
        assert delivered[0] == [] and delivered[1] == []
        # Tick-0 arrivals re-emerge at tick 2, stamped with the delivery tick.
        assert len(delivered[2]) == len(STREAMS)
        assert all(t.arrived_at == 2 for t in delivered[2])
        assert sorted(t.stream for t in delivered[2]) == sorted(STREAMS)

    def test_squeeze_shrinks_budget_transiently(self):
        plan = FaultPlan(squeeze_prob=1.0, squeeze_factor=0.5, squeeze_len=2)
        inj = FaultInjector(plan, STREAMS, seed=1)
        inj.begin_tick(0)
        assert inj.memory_budget(0, 1000) == 500
        assert inj.memory_budget(1, 1000) == 500
        assert inj.memory_budget(2, 1000) == 1000  # before tick-2 roll

    def test_forced_migrations_and_corruptions_listed(self):
        inj = FaultInjector(
            FaultPlan(migrate_prob=1.0, corrupt_prob=1.0, corrupt_records=7),
            STREAMS,
            seed=1,
        )
        inj.begin_tick(0)
        assert inj.forced_migrations(0) == STREAMS
        assert inj.corruptions(0) == STREAMS
        jas = JoinAttributeSet(["x", "y"])
        patterns = inj.corrupt_patterns(jas)
        assert len(patterns) == 7
        assert all(0 < p.mask <= jas.full_mask for p in patterns)

    def test_begin_tick_required_first(self):
        inj = FaultInjector(FaultPlan(drop_prob=1.0), STREAMS, seed=1)
        with pytest.raises(RuntimeError):
            inj.perturb_arrivals(0, arrivals_at(0))

    def test_activations_logged_as_fault_events(self):
        log = EventLog()
        inj = FaultInjector(FaultPlan(stall_prob=1.0, stall_len=2), STREAMS, seed=1)
        perturb(inj, ticks=4, log=log)
        faults = [e for e in log if e.kind == "fault"]
        assert faults and all(e.detail["fault"] == "stall" for e in faults)
        assert inj.injected == len(faults)


PER_TYPE_PLANS = {
    "burst": FaultPlan(burst_prob=0.3),
    "stall": FaultPlan(stall_prob=0.3),
    "drop": FaultPlan(drop_prob=0.3),
    "delay": FaultPlan(delay_prob=0.3),
    "squeeze": FaultPlan(squeeze_prob=0.3),
    "migrate": FaultPlan(migrate_prob=0.3),
    "corrupt": FaultPlan(corrupt_prob=0.3, corrupt_records=5),
}


class TestSeededReproducibility:
    @pytest.mark.parametrize("kind", sorted(PER_TYPE_PLANS))
    def test_same_seed_same_schedule(self, kind):
        plan = PER_TYPE_PLANS[kind]
        logs = []
        batches = []
        for _ in range(2):
            log = EventLog()
            inj = FaultInjector(plan, STREAMS, seed=42)
            batches.append(perturb(inj, ticks=40, log=log))
            logs.append([str(e) for e in log])
        assert logs[0] == logs[1]
        a, b = batches
        assert [[repr(t) for t in batch] for batch in a] == [
            [repr(t) for t in batch] for batch in b
        ]

    @pytest.mark.parametrize("kind", sorted(PER_TYPE_PLANS))
    def test_different_seed_different_schedule(self, kind):
        plan = PER_TYPE_PLANS[kind]
        observed = []
        for seed in (1, 2):
            log = EventLog()
            batches = perturb(FaultInjector(plan, STREAMS, seed=seed), ticks=60, log=log)
            # Per-tick activations (logged) plus the delivered arrival shape
            # (the only footprint of the per-tuple drop/delay faults).
            observed.append(
                ([str(e) for e in log], [[repr(t) for t in batch] for batch in batches])
            )
        assert observed[0] != observed[1]

    def test_executor_run_reproducible_under_faults(self):
        """Same (scenario seed, fault seed) => identical stats + events."""

        def once():
            sc = PaperScenario(ScenarioParams(seed=11))
            log = EventLog()
            ex = sc.make_executor(
                "amri:sria", capacity=1e9, memory_budget=1 << 30, event_log=log
            )
            stats = drive(ex, 50, sc.make_generator(), FAULT_PROFILES["chaos"], fault_seed=5)
            return stats, [str(e) for e in log]

        (s1, l1), (s2, l2) = once(), once()
        assert s1 == s2
        assert l1 == l2
        assert s1.faults_injected > 0


class TestDegradation:
    def make_stem(self, n=20):
        jas = JoinAttributeSet(["k"])
        stem = StateStore("A", jas, make_bit_index(jas, [4]), 100, NullTuner(SRIA(jas)))
        items = [StreamTuple("A", 0, {"k": i % 5}) for i in range(n)]
        for item in items:
            stem.insert(item, 0)
        return stem, items

    def test_degrade_to_scan_preserves_contents(self):
        stem, items = self.make_stem()
        before = {id(m) for m in stem.probe(self._ap(stem), {"k": 3}).matches}
        moved = stem.degrade_to_scan()
        assert moved == len(items)
        assert stem.degraded
        assert isinstance(stem.index, ScanIndex)
        after = {id(m) for m in stem.probe(self._ap(stem), {"k": 3}).matches}
        assert after == before

    def test_degrade_releases_index_memory(self):
        stem, items = self.make_stem()
        heavy = stem.index.memory_bytes
        stem.degrade_to_scan()
        assert stem.index.memory_bytes < heavy
        assert stem.index.accountant.moves == len(items)

    def test_degrade_twice_is_noop(self):
        stem, _ = self.make_stem()
        stem.degrade_to_scan()
        assert stem.degrade_to_scan() == 0

    def test_expiry_still_works_after_degrade(self):
        stem, items = self.make_stem()
        stem.degrade_to_scan()
        assert stem.expire(200) == len(items)
        assert stem.index.size == 0

    @staticmethod
    def _ap(stem):
        from repro.core.access_pattern import AccessPattern

        return AccessPattern.from_attributes(stem.jas, ["k"])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(headroom=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(shed_floor=-1)

    def test_shedding_under_pressure(self):
        """A capacity-starved run sheds backlog instead of dying."""
        sc = PaperScenario(ScenarioParams(seed=41))
        log = EventLog()
        ex = sc.make_executor(
            "scan",
            capacity=100.0,
            memory_budget=150_000,
            event_log=log,
            degradation=DegradationPolicy(),
        )
        stats = ex.run(200, sc.make_generator())
        assert stats.shed_tuples > 0
        assert [e for e in log if e.kind == "shed"]
        # Shedding keeps the backlog bounded: the run survives where the
        # policy-less run (tests/engine/test_tracing.py) dies.
        assert stats.died_at is None

    @pytest.mark.parametrize(
        "scheme", ["amri:sria", "hash:2", "static", "inverted", "scan"]
    )
    def test_no_scheme_raises_under_memory_squeeze(self, scheme):
        """Acceptance: squeezed runs either survive with shed/degrade events
        or record an explicit death — never an unhandled exception."""
        sc = PaperScenario(ScenarioParams(seed=13))
        log = EventLog()
        ex = sc.make_executor(
            scheme,
            memory_budget=220_000,
            event_log=log,
            degradation=DegradationPolicy(),
        )
        squeeze = FaultPlan(squeeze_prob=0.2, squeeze_factor=0.35, squeeze_len=8)
        stats = drive(ex, 120, sc.make_generator(), squeeze, fault_seed=3)
        assert ex.meter.memory_budget == 220_000  # every squeeze was undone
        if stats.died_at is None:
            assert any(e.kind in ("shed", "degrade") for e in log) or stats.shed_tuples >= 0
        else:
            deaths = [e for e in log if e.kind == "death"]
            assert len(deaths) == 1 and deaths[0].tick == stats.died_at

    def test_scan_fallback_degrades_heavy_index(self):
        """An index-heavy state falls back to scan rather than dying."""
        sc = PaperScenario(ScenarioParams(seed=7))
        log = EventLog()
        ex = sc.make_executor(
            "hash:7",
            capacity=1e9,
            memory_budget=240_000,
            event_log=log,
            degradation=DegradationPolicy(headroom=0.8),
        )
        stats = ex.run(120, sc.make_generator())
        if stats.degradations:
            degrades = [e for e in log if e.kind == "degrade"]
            assert len(degrades) == stats.degradations
            assert any(ex.stems[e.stream].degraded for e in degrades)
        else:  # budget generous enough this seed: at minimum nothing blew up
            assert stats.died_at is None or [e for e in log if e.kind == "death"]


class TestInvariantChecker:
    def build(self, capacity=1e9):
        sc = PaperScenario(ScenarioParams(seed=19))
        ex = sc.make_executor("amri:sria", capacity=capacity, memory_budget=1 << 30)
        return sc, ex

    def test_healthy_run_passes(self):
        checker = InvariantChecker()
        sc, ex = self.build()
        drive(ex, 60, sc.make_generator(), checker=checker)
        assert checker.ticks_checked == 60

    def test_checker_does_not_perturb_the_run(self):
        """Checking every tick must leave RunStats exactly unchanged."""
        sc1, plain = self.build()
        stats_plain = plain.run(40, sc1.make_generator())
        sc2, checked = self.build()
        stats_checked = drive(checked, 40, sc2.make_generator(), checker=InvariantChecker())
        assert stats_plain == stats_checked

    def test_detects_negative_memory_gauge(self):
        sc, ex = self.build()
        ex.run(5, sc.make_generator())
        stem = next(iter(ex.stems.values()))
        stem.index.accountant.index_bytes = -1
        with pytest.raises(InvariantViolation):
            InvariantChecker().check(ex.context, 5)

    def test_passes_under_faults_and_degradation(self):
        sc = PaperScenario(ScenarioParams(seed=23))
        checker = InvariantChecker()
        ex = sc.make_executor(
            "amri:cdia-highest", memory_budget=250_000, degradation=DegradationPolicy()
        )
        stats = drive(
            ex, 100, sc.make_generator(), FAULT_PROFILES["chaos"], fault_seed=8, checker=checker
        )
        assert checker.ticks_checked >= (100 if stats.died_at is None else stats.died_at)
