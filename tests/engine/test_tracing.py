"""Tests for structured engine event tracing."""

import dataclasses

import pytest

from repro.engine.tracing import EVENT_KINDS, EngineEvent, EventLog


class TestEventLog:
    def test_record_and_filter(self):
        log = EventLog()
        log.record(5, "tune", "A", saving=1.5)
        log.record(10, "migration", "A", old="x", new="y")
        log.record(10, "migration", "B")
        log.record(40, "death", None, used=99)
        assert len(log) == 4
        assert len([e for e in log if e.kind == "migration"]) == 2
        assert len([e for e in log if e.kind == "migration" and e.stream == "A"]) == 1
        assert [e for e in log if e.kind == "death"][0].detail["used"] == 99

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            EngineEvent(1, "explosion")

    def test_robustness_kinds_accepted(self):
        log = EventLog()
        log.record(3, "fault", "A", fault="burst", factor=3)
        log.record(9, "shed", None, count=40)
        log.record(12, "degrade", "B", to="scan")
        assert [e.kind for e in log] == ["fault", "shed", "degrade"]
        assert [e for e in log if e.kind == "fault"][0].detail["fault"] == "burst"

    def test_to_lines(self):
        log = EventLog()
        log.record(7, "migration", "C", old="a", new="b")
        line = [str(e) for e in log][0]
        assert "t=7" in line and "[C]" in line and "old=a" in line

    def test_a_streamless_event_prints_no_brackets(self):
        assert str(EngineEvent(9, "shed", None, {"count": 40})) == "t=9 shed: count=40"
        assert str(EngineEvent(3, "tune")) == "t=3 tune: "

    def test_record_returns_the_event_it_appends(self):
        log = EventLog()
        first = log.record(2, "tune", "A", saving=0.5)
        second = log.record(2, "degrade", "B", to="scan")
        assert list(log) == [first, second]
        assert first == EngineEvent(2, "tune", "A", {"saving": 0.5})

    def test_events_are_frozen(self):
        event = EventLog().record(4, "death", None, used=99)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.tick = 5


class TestEventKindRegistry:
    """The valid kinds are one closed tuple; nothing registers more."""

    def test_builtins_registered(self):
        assert EVENT_KINDS == (
            "tune",
            "migration",
            "death",
            "fault",
            "degrade",
            "shed",
            "fanout_cut",
        )
        for kind in EVENT_KINDS:
            assert EngineEvent(1, kind).kind == kind

    def test_unregistered_kind_still_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind 'checkpoint'") as exc:
            EngineEvent(1, "checkpoint")
        assert all(repr(kind) in str(exc.value) for kind in EVENT_KINDS)

    def test_registry_view_is_immutable(self):
        assert isinstance(EVENT_KINDS, tuple)

    def test_rejects_malformed_kind_names(self):
        for bad in ("", "has space", "Tune"):
            with pytest.raises(ValueError, match="unknown event kind"):
                EngineEvent(1, bad)


class TestTracedRun:
    def test_executor_records_migrations_and_death(self):
        from repro.workloads.scenarios import PaperScenario, ScenarioParams

        sc = PaperScenario(ScenarioParams(seed=41))
        log = EventLog()
        ex = sc.make_executor("amri:cdia-highest", capacity=1e9, memory_budget=1 << 30)
        ex.context.event_log = log
        stats = ex.run(130, sc.make_generator())
        migrations = [e for e in log if e.kind == "migration"]
        assert len(migrations) == stats.migrations
        assert all(e.stream in sc.query.stream_names for e in migrations)

    def test_death_event_recorded(self):
        from repro.workloads.scenarios import PaperScenario, ScenarioParams

        sc = PaperScenario(ScenarioParams(seed=41))
        log = EventLog()
        ex = sc.make_executor("scan", capacity=100.0, memory_budget=150_000)
        ex.context.event_log = log
        stats = ex.run(200, sc.make_generator())
        assert stats.died_at is not None
        deaths = [e for e in log if e.kind == "death"]
        assert len(deaths) == 1
        assert deaths[0].tick == stats.died_at

    def test_fault_events_match_injector_count(self):
        from repro.workloads.scenarios import PaperScenario, ScenarioParams
        from tests.faults import FAULT_PROFILES, drive

        sc = PaperScenario(ScenarioParams(seed=41))
        log = EventLog()
        ex = sc.make_executor("scan", capacity=1e9, memory_budget=1 << 30, event_log=log)
        stats = drive(ex, 60, sc.make_generator(), FAULT_PROFILES["tuning"], fault_seed=2)
        assert stats.faults_injected == len([e for e in log if e.kind == "fault"])
        assert stats.faults_injected > 0
