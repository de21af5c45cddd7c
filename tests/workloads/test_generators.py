"""Tests for drifting synthetic stream generation."""

import numpy as np
import pytest

from repro.workloads.generators import (
    PiecewiseConstantSchedule,
    SyntheticStreamGenerator,
    rotating_hotspot_schedules,
    zipf_weights,
)


class TestZipfWeights:
    def test_uniform_at_zero_skew(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_normalised(self):
        assert zipf_weights(100, 1.3).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(50, 1.5)
        assert (np.diff(w) <= 0).all()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)


class TestSchedules:
    def test_constant(self):
        s = PiecewiseConstantSchedule([(1, 100, 1.5)])
        assert s.domain_size(0) == s.domain_size(999) == 100
        assert s.skew(5) == 1.5
        assert s.max_domain_size == 100

    def test_piecewise_phases(self):
        s = PiecewiseConstantSchedule([(10, 100, 0.0), (5, 50, 2.0)])
        assert s.domain_size(0) == 100 and s.skew(0) == 0.0
        assert s.domain_size(10) == 50 and s.skew(14) == 2.0

    def test_cycling(self):
        s = PiecewiseConstantSchedule([(10, 100, 0.0), (5, 50, 2.0)])
        assert s.domain_size(15) == 100  # wrapped
        assert s.domain_size(25) == 50

    def test_non_cycling_holds_last(self):
        s = PiecewiseConstantSchedule([(10, 100, 0.0), (5, 50, 2.0)], cycle=False)
        assert s.domain_size(1000) == 50

    def test_rejects_negative_tick(self):
        s = PiecewiseConstantSchedule([(10, 100, 0.0)])
        with pytest.raises(ValueError):
            s.domain_size(-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSchedule([])

    def test_rotating_hotspot_one_hot_at_a_time(self):
        scheds = rotating_hotspot_schedules(
            ["x", "y", "z"], phase_len=10, domain=64, hot_skew=2.0, cold_skew=1.0
        )
        for phase, hot_attr in enumerate(["x", "y", "z"]):
            tick = phase * 10 + 3
            for attr, sched in scheds.items():
                expected = 2.0 if attr == hot_attr else 1.0
                assert sched.skew(tick) == expected

    def test_rotating_hotspot_cycles_fairly(self):
        scheds = rotating_hotspot_schedules(
            ["x", "y"], phase_len=5, domain=16, hot_skew=2.0, cold_skew=0.0
        )
        hot_ticks = {a: 0 for a in scheds}
        for t in range(100):
            for a, s in scheds.items():
                if s.skew(t) == 2.0:
                    hot_ticks[a] += 1
        assert hot_ticks["x"] == hot_ticks["y"] == 50


class TestSyntheticStreamGenerator:
    def make(self, seed=0):
        return SyntheticStreamGenerator(
            {"A": ("k", "m"), "B": ("k",)},
            {
                "k": PiecewiseConstantSchedule([(1, 16, 1.0)]),
                "m": PiecewiseConstantSchedule([(1, 8, 0.0)]),
            },
            {"A": 3, "B": 2},
            seed=seed,
        )

    def test_arrival_counts(self):
        gen = self.make()
        arr = gen.arrivals(0)
        assert sum(1 for t in arr if t.stream == "A") == 3
        assert sum(1 for t in arr if t.stream == "B") == 2

    def test_values_in_domain(self):
        gen = self.make()
        for tick in range(20):
            for t in gen.arrivals(tick):
                assert 0 <= t["k"] < 16
                if t.stream == "A":
                    assert 0 <= t["m"] < 8

    def test_provenance(self):
        gen = self.make()
        for t in gen.arrivals(7):
            assert t.arrived_at == 7

    def test_seeded_reproducibility(self):
        a = [dict(t) for t in self.make(5).arrivals(0)]
        b = [dict(t) for t in self.make(5).arrivals(0)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [dict(t) for tick in range(5) for t in self.make(1).arrivals(tick)]
        b = [dict(t) for tick in range(5) for t in self.make(2).arrivals(tick)]
        assert a != b

    def test_domain_bits(self):
        assert self.make().domain_bits() == {"k": 4, "m": 3}

    def test_missing_schedule_rejected(self):
        with pytest.raises(ValueError, match="no domain schedule"):
            SyntheticStreamGenerator(
                {"A": ("k",)}, {}, {"A": 1}
            )

    def test_missing_rate_rejected(self):
        with pytest.raises(ValueError, match="no arrival rate"):
            SyntheticStreamGenerator(
                {"A": ("k",)}, {"k": PiecewiseConstantSchedule([(1, 4, 0.0)])}, {}
            )

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError, match="unknown streams"):
            SyntheticStreamGenerator(
                {"A": ("k",)}, {"k": PiecewiseConstantSchedule([(1, 4, 0.0)])}, {"A": 1, "Z": 1}
            )

    def test_callable_protocol(self):
        gen = self.make()
        assert len(gen(0)) == 5

    def test_skew_concentrates_values(self):
        gen = SyntheticStreamGenerator(
            {"A": ("k",)},
            {"k": PiecewiseConstantSchedule([(1, 256, 2.5)])},
            {"A": 200},
            seed=3,
        )
        values = [t["k"] for t in gen.arrivals(0)]
        assert sum(1 for v in values if v < 8) > len(values) * 0.5


class TestRateModulation:
    def test_diurnal_burst_shape(self):
        from repro.workloads.generators import diurnal_burst_modulation

        mod = diurnal_burst_modulation(
            period=100, amplitude=0.5, burst_every=50, burst_len=5, burst_factor=2.0
        )
        base = mod("s", 10)
        burst = mod("s", 50)  # inside a burst window
        assert burst > base
        assert mod("s", 25) == pytest.approx(1.5, abs=0.01)  # sine peak
        assert mod("s", 75) == pytest.approx(0.5, abs=0.01)  # sine trough

    def test_modulated_generator_counts(self):
        from repro.workloads.generators import diurnal_burst_modulation

        gen = SyntheticStreamGenerator(
            {"A": ("k",)},
            {"k": PiecewiseConstantSchedule([(1, 16, 0.0)])},
            {"A": 10},
            rate_modulation=diurnal_burst_modulation(
                period=100, amplitude=0.0, burst_every=50, burst_len=5, burst_factor=3.0
            ),
        )
        assert len(gen.arrivals(10)) == 10  # no burst, flat cycle
        assert len(gen.arrivals(50)) == 30  # burst triples arrivals

    def test_zero_rate_tick(self):
        gen = SyntheticStreamGenerator(
            {"A": ("k",)},
            {"k": PiecewiseConstantSchedule([(1, 16, 0.0)])},
            {"A": 1},
            rate_modulation=lambda s, t: 0.0,
        )
        assert gen.arrivals(0) == []

    def test_modulation_rejects_bad_params(self):
        from repro.workloads.generators import diurnal_burst_modulation

        with pytest.raises(ValueError):
            diurnal_burst_modulation(period=0)
        with pytest.raises(ValueError):
            diurnal_burst_modulation(burst_factor=0)
