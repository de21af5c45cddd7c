"""Tests for the virtual clock and memory budgeting."""

import pytest

from repro.engine.resources import (
    MemoryBreakdown,
    MemoryBudgetExceeded,
    ResourceMeter,
)


class TestResourceMeter:
    def test_start_tick_grants_capacity(self):
        m = ResourceMeter(capacity=100)
        m.start_tick()
        assert m.tick_budget == 100

    def test_spend_draws_down(self):
        m = ResourceMeter(capacity=100)
        m.start_tick()
        m.spend(30)
        assert m.tick_budget == 70
        assert m.total_spent == 30
        assert not m.exhausted

    def test_overdraft_carries_into_next_tick(self):
        m = ResourceMeter(capacity=100)
        m.start_tick()
        m.spend(150)  # operations are never split
        assert m.exhausted
        m.start_tick()
        assert m.tick_budget == 50  # deficit carried

    def test_budget_never_exceeds_capacity(self):
        m = ResourceMeter(capacity=100)
        m.start_tick()
        m.spend(10)
        m.start_tick()  # unused budget does not accumulate
        assert m.tick_budget == 100

    def test_rejects_negative_spend(self):
        m = ResourceMeter(capacity=100)
        with pytest.raises(ValueError):
            m.spend(-1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ResourceMeter(capacity=0)
        with pytest.raises(ValueError):
            ResourceMeter(memory_budget=0)


class TestMemoryBudget:
    def test_breakdown_total(self):
        b = MemoryBreakdown(state_payload=10, index_structures=20, backlog=30, statistics=5)
        assert b.total == 65

    def test_check_under_budget_passes(self):
        m = ResourceMeter(memory_budget=100)
        m.check_memory(MemoryBreakdown(state_payload=99), at_tick=3)

    def test_check_over_budget_raises_with_details(self):
        m = ResourceMeter(memory_budget=100)
        with pytest.raises(MemoryBudgetExceeded) as exc:
            m.check_memory(MemoryBreakdown(backlog=200), at_tick=7)
        assert exc.value.at_tick == 7
        assert exc.value.used == 200
        assert "backlog=200" in str(exc.value)

    def test_exact_budget_passes(self):
        m = ResourceMeter(memory_budget=100)
        m.check_memory(MemoryBreakdown(state_payload=100), at_tick=0)
