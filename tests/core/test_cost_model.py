"""Tests for the C_D cost model (Equation 1 with documented refinements)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.cost_model import (
    WorkloadStatistics,
    cost_breakdown,
    effective_pattern_bits,
    effective_total_bits,
    estimate_cd,
    expected_bucket_visits,
    expected_tuples_compared,
    hash_scheme_cd,
    migration_cost,
    selectivity_weighted_scan_fraction,
)
from repro.core.index_config import IndexConfiguration
from repro.indexes.base import CostParams


def make_stats(jas, freqs, *, lambda_d=100.0, lambda_r=50.0, window=10.0, domain_bits=None):
    return WorkloadStatistics(
        lambda_d=lambda_d,
        lambda_r=lambda_r,
        window=window,
        frequencies=freqs,
        domain_bits=domain_bits or {},
    )


class TestWorkloadStatistics:
    def test_stored_tuples(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        assert stats.stored_tuples == 1000.0

    def test_rejects_bad_rates(self, jas3, ap3):
        with pytest.raises(ValueError):
            make_stats(jas3, {ap3("A"): 1.0}, lambda_d=0)
        with pytest.raises(ValueError):
            make_stats(jas3, {ap3("A"): 1.0}, window=0)

    @pytest.mark.parametrize("field", ["lambda_d", "lambda_r", "window"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_rates_naming_the_field(self, jas3, ap3, field, bad):
        with pytest.raises(ValueError, match=field):
            make_stats(jas3, {ap3("A"): 1.0}, **{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_frequency_naming_the_pattern(self, jas3, ap3, bad):
        with pytest.raises(ValueError, match=r"frequency of <\*, B, \*>"):
            make_stats(jas3, {ap3("A"): 0.5, ap3("B"): bad})

    def test_rejects_negative_frequency(self, jas3, ap3):
        with pytest.raises(ValueError):
            make_stats(jas3, {ap3("A"): -0.1})


class TestEffectiveBits:
    def test_uncapped(self, jas3, ap3):
        ic = IndexConfiguration(jas3, [5, 2, 3])
        assert effective_pattern_bits(ic, ap3("A", "C"), {}) == 8

    def test_domain_cap_applies(self, jas3, ap3):
        ic = IndexConfiguration(jas3, [10, 2, 3])
        assert effective_pattern_bits(ic, ap3("A"), {"A": 4}) == 4

    def test_total_bits_capped(self, jas3):
        ic = IndexConfiguration(jas3, [10, 10, 10])
        assert effective_total_bits(ic, {"A": 2, "B": 2, "C": 2}) == 6


class TestSearchTerms:
    def test_tuples_compared_halves_per_bit(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        ic0 = IndexConfiguration(jas3, [0, 0, 0])
        ic1 = IndexConfiguration(jas3, [1, 0, 0])
        assert expected_tuples_compared(ic0, ap3("A"), stats) == stats.stored_tuples
        assert expected_tuples_compared(ic1, ap3("A"), stats) == stats.stored_tuples / 2

    def test_bucket_visits_wildcard(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        ic = IndexConfiguration(jas3, [2, 3, 0])
        # Probing with A only leaves B's 3 bits wild: 8 bucket ids.
        assert expected_bucket_visits(ic, ap3("A"), stats) == 8.0

    def test_bucket_visits_capped_at_live(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0}, lambda_d=10, window=2)  # 20 tuples
        ic = IndexConfiguration(jas3, [2, 16, 0])
        assert expected_bucket_visits(ic, ap3("A"), stats) <= 20.0

    def test_exact_match_single_bucket(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A", "B", "C"): 1.0})
        ic = IndexConfiguration(jas3, [2, 2, 2])
        assert expected_bucket_visits(ic, ap3("A", "B", "C"), stats) == 1.0


class TestCostBreakdown:
    def test_maintenance_counts_indexed_attrs(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        bd = cost_breakdown(IndexConfiguration(jas3, [4, 4, 0]), stats)
        assert bd.maintenance == stats.lambda_d * 2 * CostParams.c_hash

    def test_total_is_sum(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 0.6, ap3("B", "C"): 0.4})
        bd = cost_breakdown(IndexConfiguration(jas3, [2, 2, 2]), stats)
        assert bd.total == pytest.approx(
            bd.maintenance + bd.request_hashing + bd.bucket_visits + bd.tuple_comparisons
        )
        assert bd.search == pytest.approx(bd.total - bd.maintenance)

    def test_zero_frequency_patterns_free(self, jas3, ap3):
        stats_a = make_stats(jas3, {ap3("A"): 1.0, ap3("B"): 0.0})
        stats_b = make_stats(jas3, {ap3("A"): 1.0})
        ic = IndexConfiguration(jas3, [2, 2, 2])
        assert estimate_cd(ic, stats_a) == estimate_cd(ic, stats_b)

    def test_foreign_pattern_rejected(self, jas3):
        foreign_jas = JoinAttributeSet(["X"])
        foreign = AccessPattern.from_attributes(foreign_jas, ["X"])
        stats = make_stats(jas3, {foreign: 1.0})
        with pytest.raises(ValueError):
            estimate_cd(IndexConfiguration(jas3, [1, 1, 1]), stats)

    def test_printed_formula_via_zero_bucket_cost(self, jas3, ap3):
        """With c_bucket = 0 the model reduces to the paper's printed Eq. 1."""
        params = CostParams(c_bucket=0.0)
        stats = make_stats(jas3, {ap3("A"): 1.0})
        ic = IndexConfiguration(jas3, [3, 0, 0])
        expected = (
            stats.lambda_d * 1 * params.c_hash
            + stats.lambda_r
            * 1.0
            * (1 * params.c_hash + stats.stored_tuples / 2**3 * params.c_compare)
        )
        assert estimate_cd(ic, stats, params) == pytest.approx(expected)

    def test_indexing_frequent_attr_lowers_cost(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        bare = estimate_cd(IndexConfiguration(jas3, [0, 0, 0]), stats)
        indexed = estimate_cd(IndexConfiguration(jas3, [6, 0, 0]), stats)
        assert indexed < bare

    def test_bits_on_unused_attr_raise_cost(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        focused = estimate_cd(IndexConfiguration(jas3, [6, 0, 0]), stats)
        wasteful = estimate_cd(IndexConfiguration(jas3, [6, 6, 0]), stats)
        assert wasteful > focused

    @settings(max_examples=30, deadline=None)
    @given(
        bits=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        mask=st.integers(1, 7),
    )
    def test_cost_non_negative_and_finite(self, bits, mask):
        jas = JoinAttributeSet(["A", "B", "C"])
        ap = AccessPattern.from_mask(jas, mask)
        stats = make_stats(jas, {ap: 1.0})
        cd = estimate_cd(IndexConfiguration(jas, list(bits)), stats)
        assert cd >= 0 and cd == cd  # finite, not NaN

    @settings(max_examples=30, deadline=None)
    @given(mask=st.integers(1, 7), extra=st.integers(1, 6))
    def test_more_bits_on_pattern_attr_never_hurt_comparisons(self, mask, extra):
        jas = JoinAttributeSet(["A", "B", "C"])
        ap = AccessPattern.from_mask(jas, mask)
        stats = make_stats(jas, {ap: 1.0})
        attr = ap.attributes[0]
        base = IndexConfiguration(jas, {attr: 2})
        more = IndexConfiguration(jas, {attr: 2 + extra})
        assert expected_tuples_compared(more, ap, stats) <= expected_tuples_compared(
            base, ap, stats
        )


class TestMigrationCost:
    def test_zero_for_identical(self, jas3):
        ic = IndexConfiguration(jas3, [1, 2, 3])
        assert migration_cost(ic, ic, 1000) == 0.0

    def test_scales_with_tuples(self, jas3):
        a = IndexConfiguration(jas3, [1, 0, 0])
        b = IndexConfiguration(jas3, [0, 1, 0])
        assert migration_cost(a, b, 200) == 2 * migration_cost(a, b, 100)

    def test_counts_new_indexed_attrs(self, jas3):
        a = IndexConfiguration(jas3, [1, 0, 0])
        narrow = IndexConfiguration(jas3, [0, 4, 0])
        wide = IndexConfiguration(jas3, [0, 4, 4])
        assert migration_cost(a, wide, 100) > migration_cost(a, narrow, 100)


class TestHashSchemeCd:
    def test_no_modules_means_scans(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        cd = hash_scheme_cd([], stats)
        assert cd == pytest.approx(stats.lambda_r * stats.stored_tuples * CostParams.c_compare)

    def test_suitable_module_beats_scan(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0}, domain_bits={"A": 8})
        with_module = hash_scheme_cd([ap3("A")], stats)
        without = hash_scheme_cd([ap3("B")], stats)
        assert with_module < without

    def test_more_modules_cost_more_maintenance(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0}, domain_bits={"A": 8, "B": 8, "C": 8})
        one = hash_scheme_cd([ap3("A")], stats)
        three = hash_scheme_cd([ap3("A"), ap3("B"), ap3("C")], stats)
        assert three > one


class TestScanFraction:
    def test_range(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 0.7, ap3("B"): 0.3})
        frac = selectivity_weighted_scan_fraction(IndexConfiguration(jas3, [4, 0, 0]), stats)
        assert 0.0 <= frac <= 1.0

    def test_no_index_is_one(self, jas3, ap3):
        stats = make_stats(jas3, {ap3("A"): 1.0})
        assert selectivity_weighted_scan_fraction(
            IndexConfiguration(jas3, [0, 0, 0]), stats
        ) == pytest.approx(1.0)


class TestCostModelEdgeCases:
    def test_empty_frequencies_is_maintenance_only(self, jas3):
        stats = WorkloadStatistics(
            lambda_d=10.0, lambda_r=5.0, window=4.0, frequencies={}
        )
        bd = cost_breakdown(IndexConfiguration(jas3, [2, 0, 0]), stats)
        assert bd.search == 0.0
        assert bd.total == bd.maintenance > 0

    def test_zero_lambda_r_removes_search_cost(self, jas3, ap3):
        stats = WorkloadStatistics(
            lambda_d=10.0, lambda_r=0.0, window=4.0, frequencies={ap3("A"): 1.0}
        )
        bd = cost_breakdown(IndexConfiguration(jas3, [2, 2, 2]), stats)
        assert bd.search == 0.0

    def test_migration_cost_to_unindexed_is_move_only(self, jas3):
        a = IndexConfiguration(jas3, [3, 0, 0])
        empty = IndexConfiguration(jas3, [0, 0, 0])
        params = CostParams()
        assert migration_cost(a, empty, 10, params) == pytest.approx(10 * params.c_move)

    def test_hash_scheme_full_scan_pattern(self, jas3, ap3):
        # a full-scan request never has a suitable module
        stats = WorkloadStatistics(
            lambda_d=10.0, lambda_r=1.0, window=10.0, frequencies={ap3(): 1.0}
        )
        cd = hash_scheme_cd([ap3("A")], stats)
        assert cd >= stats.stored_tuples * CostParams.c_compare
