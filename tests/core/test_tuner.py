"""Tests for the AMRI tuner, the hash baseline tuner, and the null tuner."""

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA, SRIA
from repro.core.bit_index import make_bit_index
from repro.core.selector import IndexSelector
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner, TuningContext
from repro.indexes.hash_index import MultiHashIndex

CTX = TuningContext(lambda_d=50.0, window=10.0, horizon=25.0, domain_bits={"A": 8, "B": 8, "C": 8})


def make_amri(jas, bits=None, theta=0.1, budget=16):
    index = make_bit_index(jas, bits if bits is not None else [2, 2, 2])
    assessor = CDIA(jas, epsilon=0.05, combine="highest_count", seed=0)
    return AMRITuner(index, assessor, IndexSelector(jas, budget), theta=theta)


def fill(index, n=200):
    for i in range(n):
        index.insert({"A": i % 50, "B": (i * 7) % 50, "C": (i * 11) % 50})


class TestAMRITuner:
    def test_no_requests_no_tune(self, jas3):
        tuner = make_amri(jas3)
        assert tuner.tune(CTX) is None

    def test_migrates_toward_hot_pattern(self, jas3, ap3):
        tuner = make_amri(jas3, bits=[0, 0, 4])
        fill(tuner.index)
        for _ in range(300):
            tuner.observe(ap3("A"))
        report = tuner.tune(CTX)
        assert report is not None and report.migrated
        assert tuner.index.config.bits[jas3.position("A")] > 0
        assert ap3("A") in report.frequencies

    def test_keeps_good_configuration(self, jas3, ap3):
        tuner = make_amri(jas3, bits=[8, 0, 0])
        fill(tuner.index)
        for _ in range(300):
            tuner.observe(ap3("A"))
        report = tuner.tune(CTX)
        # Already optimal for an A-only workload: no migration.
        assert report is None or not report.migrated

    def test_resets_assessor_after_tune(self, jas3, ap3):
        tuner = make_amri(jas3)
        for _ in range(50):
            tuner.observe(ap3("A"))
        tuner.tune(CTX)
        assert tuner.assessor.n_requests == 0

    def test_below_threshold_noise_keeps_config(self, jas3):
        # SRIA keeps exact (unrolled) statistics, so with theta=0.9 and an
        # even 7-way spread no pattern can clear the threshold.  (CDIA could
        # legitimately concentrate rolled-up mass above it.)
        index = make_bit_index(jas3, [2, 2, 2])
        tuner = AMRITuner(index, SRIA(jas3), IndexSelector(jas3, 16), theta=0.9)
        fill(tuner.index, 50)
        for m in range(1, 8):
            for _ in range(3):
                tuner.observe(AccessPattern.from_mask(jas3, m))
        before = tuner.index.config
        assert tuner.tune(CTX) is None
        assert tuner.index.config == before

    def test_migration_gate_blocks_marginal_gains(self, jas3, ap3):
        # A huge state makes migration expensive; a tiny horizon makes the
        # projected saving small — the gate must refuse.
        tuner = make_amri(jas3, bits=[7, 0, 0])
        fill(tuner.index, 2000)
        for _ in range(100):
            tuner.observe(ap3("A"))
            tuner.observe(ap3("A", "B"))
        ctx = TuningContext(lambda_d=1.0, window=1.0, horizon=0.5, domain_bits={})
        report = tuner.tune(ctx)
        if report is not None:
            assert not report.migrated

    def test_history_recorded(self, jas3, ap3):
        tuner = make_amri(jas3)
        fill(tuner.index)
        for _ in range(100):
            tuner.observe(ap3("B"))
        tuner.tune(CTX)
        assert len(tuner.history) == 1
        assert tuner.history[0].projected_saving == pytest.approx(
            tuner.history[0].old_cd - tuner.history[0].new_cd
        )

    def test_rejects_mismatched_components(self, jas3):
        other = JoinAttributeSet(["X", "Y"])
        index = make_bit_index(jas3, [1, 1, 1])
        with pytest.raises(ValueError):
            AMRITuner(index, SRIA(other), IndexSelector(jas3, 8))

    def test_rejects_bad_theta(self, jas3):
        index = make_bit_index(jas3, [1, 1, 1])
        with pytest.raises(ValueError):
            AMRITuner(index, SRIA(jas3), IndexSelector(jas3, 8), theta=0.0)


class TestHashIndexTuner:
    def make(self, jas, k=2, patterns=()):
        index = MultiHashIndex(jas, patterns)
        return HashIndexTuner(index, CDIA(jas, 0.05, seed=0), k=k), index

    def test_selects_most_frequent(self, jas3, ap3):
        tuner, index = self.make(jas3, k=1)
        for _ in range(100):
            tuner.observe(ap3("B", "C"))
        for _ in range(10):
            tuner.observe(ap3("A"))
        report = tuner.tune(CTX)
        assert report is not None
        assert index.patterns[0] == ap3("B", "C") or ap3("B", "C") in index.patterns

    def test_maintains_exactly_k_modules(self, jas3, ap3):
        tuner, index = self.make(jas3, k=5)
        for _ in range(100):
            tuner.observe(ap3("A"))
        tuner.tune(CTX)
        assert index.module_count == 5

    def test_keeps_existing_modules_on_padding(self, jas3, ap3):
        start = [ap3("B"), ap3("C")]
        tuner, index = self.make(jas3, k=3, patterns=start)
        for _ in range(100):
            tuner.observe(ap3("A"))
        tuner.tune(CTX)
        assert ap3("A") in index.patterns
        # the two starting modules fill the remaining slots (no rebuild)
        assert set(start) <= set(index.patterns)

    def test_no_requests_no_tune(self, jas3):
        tuner, _ = self.make(jas3)
        assert tuner.tune(CTX) is None

    def test_rebuild_populates_new_module(self, jas3, ap3):
        tuner, index = self.make(jas3, k=1, patterns=[ap3("B")])
        items = [{"A": i, "B": i % 3, "C": i % 5} for i in range(40)]
        for item in items:
            index.insert(item)
        for _ in range(100):
            tuner.observe(ap3("A"))
        tuner.tune(CTX)
        out = index.search(ap3("A"), {"A": 7})
        assert len(out.matches) == 1
        assert not out.used_full_scan

    def test_rejects_bad_k(self, jas3):
        index = MultiHashIndex(jas3)
        with pytest.raises(ValueError):
            HashIndexTuner(index, CDIA(jas3, 0.05), k=0)


class TestNullTuner:
    def test_never_tunes(self, jas3, ap3):
        tuner = NullTuner(SRIA(jas3))
        tuner.observe(ap3("A"))
        assert tuner.tune(CTX) is None
        assert tuner.assessor.n_requests == 1

    def test_without_assessor(self, jas3, ap3):
        tuner = NullTuner()
        tuner.observe(ap3("A"))  # no-op, must not raise
        assert tuner.tune(CTX) is None


class TestHashTunerWindowing:
    def test_windowed_mode_resets(self, jas3, ap3):
        index = MultiHashIndex(jas3)
        tuner = HashIndexTuner(index, CDIA(jas3, 0.05, seed=0), k=1)
        for _ in range(30):
            tuner.observe(ap3("A"))
        tuner.tune(CTX)
        assert tuner.assessor.n_requests == 0


class TestTunerHistory:
    def test_history_accumulates_over_rounds(self, jas3, ap3):
        tuner = make_amri(jas3)
        fill(tuner.index)
        for round_no in range(3):
            for _ in range(60):
                tuner.observe(ap3("A") if round_no % 2 == 0 else ap3("C"))
            tuner.tune(CTX)
        assert len(tuner.history) == 3
        # alternating workloads force at least one migration after the first
        assert any(r.migrated for r in tuner.history)

    def test_report_descriptions_track_configs(self, jas3, ap3):
        tuner = make_amri(jas3, bits=[0, 0, 6])
        fill(tuner.index)
        for _ in range(200):
            tuner.observe(ap3("A"))
        report = tuner.tune(CTX)
        assert "C:6" in report.old_description
        assert report.new_description == repr(tuner.index.config)
