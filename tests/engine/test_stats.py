"""Tests for run statistics and the selectivity estimator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.stats import RunStats, SelectivityEstimator


class TestRunStats:
    def test_sampling(self):
        rs = RunStats()
        rs.outputs = 5
        rs.sample(0, cost_spent=10.0, memory_bytes=100, backlog=2)
        rs.outputs = 9
        rs.sample(10, cost_spent=20.0, memory_bytes=110, backlog=0)
        assert [s.outputs for s in rs.samples] == [5, 9]

    def test_outputs_at(self):
        rs = RunStats()
        for tick, outs in [(0, 1), (10, 5), (20, 9)]:
            rs.outputs = outs
            rs.sample(tick, 0.0, 0, 0)
        assert rs.outputs_at(0) == 1
        assert rs.outputs_at(15) == 5
        assert rs.outputs_at(99) == 9

    def test_outputs_at_before_first_sample(self):
        rs = RunStats()
        rs.outputs = 4
        rs.sample(10, 0.0, 0, 0)
        assert rs.outputs_at(5) == 0

    def test_completed_and_death(self):
        rs = RunStats()
        assert rs.completed
        rs.died_at = 42
        assert not rs.completed


class TestSelectivityEstimator:
    def test_default_optimistic(self):
        est = SelectivityEstimator(initial=2.5)
        assert est.expected_matches("B", 1) == 2.5

    def test_ewma_moves_toward_observations(self):
        est = SelectivityEstimator(alpha=0.5, initial=0.0)
        est.observe("B", 1, 10)
        assert est.expected_matches("B", 1) == 5.0
        est.observe("B", 1, 10)
        assert est.expected_matches("B", 1) == 7.5

    def test_keys_are_independent(self):
        est = SelectivityEstimator(alpha=1.0)
        est.observe("B", 1, 100)
        est.observe("B", 3, 0)
        est.observe("C", 1, 7)
        assert est.expected_matches("B", 1) == 100
        assert est.expected_matches("B", 3) == 0
        assert est.expected_matches("C", 1) == 7

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SelectivityEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            SelectivityEstimator(alpha=1.5)

    def test_adapts_to_drift(self):
        est = SelectivityEstimator(alpha=0.2)
        for _ in range(50):
            est.observe("B", 1, 100)
        assert est.expected_matches("B", 1) == pytest.approx(100, rel=0.05)
        for _ in range(50):
            est.observe("B", 1, 2)
        assert est.expected_matches("B", 1) == pytest.approx(2, rel=0.3)

    def test_snapshot_is_copy(self):
        est = SelectivityEstimator()
        est.observe("B", 1, 5)
        snap = est.snapshot()
        snap[("B", 1)] = 999
        assert est.expected_matches("B", 1) != 999

    def test_observe_many_of_nothing_leaves_no_estimate(self):
        est = SelectivityEstimator()
        est.observe_many("B", 1, [])
        assert est.snapshot() == {}

    @given(
        alpha=st.floats(0.001, 1.0),
        initial=st.floats(0.0, 50.0),
        hops=st.lists(
            st.tuples(st.sampled_from(["B", "C"]), st.integers(1, 3),
                      st.lists(st.integers(0, 500), max_size=40)),
            max_size=8,
        ),
    )
    def test_observe_many_equals_the_observe_loop_float_for_float(
        self, alpha, initial, hops
    ):
        folded = SelectivityEstimator(alpha, initial)
        looped = SelectivityEstimator(alpha, initial)
        for target, mask, counts in hops:
            folded.observe_many(target, mask, counts)
            for matches in counts:
                looped.observe(target, mask, matches)
        assert folded.snapshot() == looped.snapshot()  # exact: no tolerance
