"""Tests for access-pattern workload generation."""

from collections import Counter

import pytest

from repro.core.access_pattern import all_access_patterns
from repro.workloads.patterns import (
    PatternStream,
    normalise,
    with_exploration_noise,
    zipf_distribution,
)


class TestNormalise:
    def test_scales_to_one(self, ap3):
        out = normalise({ap3("A"): 2.0, ap3("B"): 2.0})
        assert out[ap3("A")] == 0.5

    def test_rejects_zero_total(self, ap3):
        with pytest.raises(ValueError):
            normalise({ap3("A"): 0.0})


class TestZipfDistribution:
    def test_sums_to_one(self, jas3):
        dist = zipf_distribution(jas3, seed=0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_covers_all_patterns(self, jas3):
        dist = zipf_distribution(jas3, seed=0)
        assert len(dist) == 7  # no full scan by default

    def test_include_full_scan(self, jas3):
        dist = zipf_distribution(jas3, seed=0, include_full_scan=True)
        assert len(dist) == 8

    def test_seeds_shuffle_ranks(self, jas3):
        d1 = zipf_distribution(jas3, seed=1)
        d2 = zipf_distribution(jas3, seed=2)
        assert d1 != d2
        assert sorted(d1.values()) == pytest.approx(sorted(d2.values()))

    def test_rejects_bad_s(self, jas3):
        with pytest.raises(ValueError):
            zipf_distribution(jas3, s=0)


class TestExplorationNoise:
    def test_mass_preserved(self, jas3, ap3):
        out = with_exploration_noise({ap3("A"): 1.0}, jas3, 0.2)
        assert sum(out.values()) == pytest.approx(1.0)

    def test_all_patterns_get_mass(self, jas3, ap3):
        out = with_exploration_noise({ap3("A"): 1.0}, jas3, 0.14)
        for ap in all_access_patterns(jas3, include_full_scan=False):
            assert out[ap] >= 0.14 / 7 - 1e-12

    def test_zero_noise_identity(self, jas3, ap3):
        base = {ap3("A"): 0.7, ap3("B"): 0.3}
        out = with_exploration_noise(base, jas3, 0.0)
        assert out[ap3("A")] == pytest.approx(0.7)

    def test_rejects_bad_noise(self, jas3, ap3):
        with pytest.raises(ValueError):
            with_exploration_noise({ap3("A"): 1.0}, jas3, 1.5)


class TestPatternStream:
    def test_length(self, ap3):
        s = PatternStream([(50, {ap3("A"): 1.0})], seed=0)
        assert len(list(s)) == 50

    def test_empirical_frequencies(self, ap3):
        dist = {ap3("A"): 0.8, ap3("B"): 0.2}
        s = PatternStream([(5000, dist)], seed=1)
        counts = Counter(s)
        assert counts[ap3("A")] / 5000 == pytest.approx(0.8, abs=0.03)

    def test_phases_in_order(self, ap3):
        s = PatternStream(
            [(10, {ap3("A"): 1.0}), (10, {ap3("B"): 1.0})], seed=0
        )
        draws = list(s)
        assert all(ap == ap3("A") for ap in draws[:10])
        assert all(ap == ap3("B") for ap in draws[10:])

    def test_seeded_reproducibility(self, ap3):
        dist = {ap3("A"): 0.5, ap3("B", "C"): 0.5}
        assert list(PatternStream([(100, dist)], seed=9)) == list(
            PatternStream([(100, dist)], seed=9)
        )

    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError):
            PatternStream([])

    def test_rejects_bad_phase_length(self, ap3):
        with pytest.raises(ValueError):
            PatternStream([(0, {ap3("A"): 1.0})])
