"""Tests for index-configuration selection (and the Table II validation)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import selector as selector_module
from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.cost_model import WorkloadStatistics, estimate_cd
from repro.core.index_config import IndexConfiguration
from repro.core.selector import (
    CandidatePool,
    IndexSelector,
    candidate_pool,
    enumerate_allocations,
    select_exhaustive,
    select_hash_patterns,
)
from repro.indexes.base import CostParams
from repro.workloads.scenarios import PaperScenario, ScenarioParams


def make_stats(freqs, **kw):
    defaults = dict(lambda_d=100.0, lambda_r=100.0, window=10.0)
    defaults.update(kw)
    return WorkloadStatistics(frequencies=freqs, **defaults)


class TestEnumeration:
    def test_small_case(self):
        allocs = list(enumerate_allocations([1, 1], 2))
        assert set(allocs) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_budget_respected(self):
        for alloc in enumerate_allocations([5, 5, 5], 4):
            assert sum(alloc) <= 4

    def test_caps_respected(self):
        for alloc in enumerate_allocations([2, 1, 0], 10):
            assert alloc[0] <= 2 and alloc[1] <= 1 and alloc[2] == 0


class TestExhaustiveSelection:
    def test_single_hot_pattern_gets_all_useful_bits(self, jas3, ap3):
        stats = make_stats({ap3("A"): 1.0}, domain_bits={"A": 6})
        best = select_exhaustive(stats, jas3, 16)
        assert best.bits[jas3.position("A")] == 6
        assert best.bits[jas3.position("B")] == 0
        assert best.bits[jas3.position("C")] == 0

    def test_respects_budget(self, jas3, ap3):
        stats = make_stats({ap3("A", "B", "C"): 1.0})
        best = select_exhaustive(stats, jas3, 5)
        assert best.total_bits <= 5

    def test_tie_breaks_to_fewer_bits(self, jas3, ap3):
        # A pattern over a 1-value domain: bits are useless, the all-zero
        # allocation must win the tie.
        stats = make_stats({ap3("A"): 1.0}, domain_bits={"A": 0, "B": 0, "C": 0})
        best = select_exhaustive(stats, jas3, 8)
        assert best.total_bits == 0

    def test_zero_budget(self, jas3, ap3):
        stats = make_stats({ap3("A"): 1.0})
        assert select_exhaustive(stats, jas3, 0).total_bits == 0


def reference_select_exhaustive(
    stats, jas, budget, params=None, *, max_bits_per_attribute=16
):
    """The oracle: the per-candidate loop over the scalar Equation 1."""
    caps = selector_module._attribute_caps(jas, budget, stats.domain_bits, max_bits_per_attribute)
    best_cfg = best_key = None
    for cfg in candidate_pool(jas, tuple(caps), budget):
        key = (estimate_cd(cfg, stats, params), cfg.total_bits, cfg.bits)
        if best_key is None or key < best_key:
            best_key, best_cfg = key, cfg
    return best_cfg


# Per JAS width, the widest per-attribute cap that keeps the pool (and so
# the oracle loop) under ~750 candidates.  Width 1 reaches 64 bits, i.e.
# both of the scalar model's ``>= 63`` branches.
_MAX_BITS_FOR_WIDTH = {1: 64, 2: 26, 3: 8, 4: 4}


@st.composite
def selection_problems(draw):
    width = draw(st.integers(1, 4))
    jas = JoinAttributeSet("ABCD"[:width])
    budget = draw(st.integers(0, 64))
    max_bits = draw(st.integers(0, _MAX_BITS_FOR_WIDTH[width]))
    domain_bits = draw(
        st.dictionaries(st.sampled_from(jas.names), st.integers(0, 70), max_size=width)
    )
    frequencies = draw(
        st.dictionaries(
            st.integers(0, jas.full_mask).map(lambda m: AccessPattern.from_mask(jas, m)),
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=5,
        )
    )
    stats = WorkloadStatistics(
        lambda_d=draw(st.floats(1e-3, 1e4)),
        lambda_r=draw(st.floats(0.0, 1e5)),
        window=draw(st.floats(1e-2, 1e3)),
        frequencies=frequencies,
        domain_bits=domain_bits,
    )
    unit = st.floats(0.0, 4.0)
    params = draw(
        st.one_of(
            st.none(),
            st.builds(
                CostParams, c_hash=unit, c_compare=unit, c_bucket=st.one_of(st.just(0.0), unit)
            ),
        )
    )
    return stats, jas, budget, params, max_bits


class TestColumnarPool:
    """The pool's columns are held to the scalar cost model exactly."""

    @settings(max_examples=60, deadline=None)
    @given(selection_problems())
    @example(
        (
            WorkloadStatistics(
                lambda_d=100.0,
                lambda_r=50.0,
                window=10.0,
                frequencies={
                    AccessPattern.from_mask(JoinAttributeSet("A"), 0): 0.5,  # wildcard >= 63
                    AccessPattern.from_mask(JoinAttributeSet("A"), 1): 0.5,  # B*_ap >= 63
                },
            ),
            JoinAttributeSet("A"),
            64,
            None,
            64,
        )
    )
    def test_every_candidate_and_the_winner_equal_the_scalar_model(self, problem):
        stats, jas, budget, params, max_bits = problem
        caps = selector_module._attribute_caps(jas, budget, stats.domain_bits, max_bits)
        pool = candidate_pool(jas, tuple(caps), budget)
        assert sorted(cfg.bits for cfg in pool) == sorted(enumerate_allocations(caps, budget))
        assert pool.cd_column(stats, params).tolist() == [
            estimate_cd(cfg, stats, params) for cfg in pool
        ]
        chosen = select_exhaustive(stats, jas, budget, params, max_bits_per_attribute=max_bits)
        assert chosen == reference_select_exhaustive(
            stats, jas, budget, params, max_bits_per_attribute=max_bits
        )

    def test_rows_are_in_tie_break_order(self, jas3):
        pool = candidate_pool(jas3, (3, 2, 4), 5)
        keys = [(cfg.total_bits, cfg.bits) for cfg in pool]
        assert keys == sorted(keys)
        assert pool.bits.tolist() == [list(cfg.bits) for cfg in pool]
        assert pool.total_bits.tolist() == [cfg.total_bits for cfg in pool]
        assert pool.n_indexed.tolist() == [len(cfg.indexed_attributes) for cfg in pool]

    def test_all_tied_picks_fewest_bits_then_lexicographic(self, jas3, ap3):
        # No hashing, bucket or comparison cost: every candidate costs 0.
        free = CostParams(c_hash=0.0, c_compare=0.0, c_bucket=0.0)
        stats = make_stats({ap3("A", "C"): 1.0})
        assert select_exhaustive(stats, jas3, 6, free).bits == (0, 0, 0)
        # Only comparisons cost and B is the only useful attribute: every
        # candidate with 2 bits on B ties; (0, 2, 0) is the smallest of them.
        compare_only = CostParams(c_hash=0.0, c_compare=1.0, c_bucket=0.0)
        stats = make_stats({ap3("B"): 1.0}, domain_bits={"B": 2})
        assert select_exhaustive(stats, jas3, 6, compare_only).bits == (0, 2, 0)

    def test_a_pool_builds_only_the_configurations_selected(self, jas3, ap3, monkeypatch):
        # The wide-domain ingest shape: 16 bits per attribute, budget 64,
        # 17**3 = 4 913 candidates, of which a round selects one.
        built = []

        def counting(jas, bits):
            built.append(IndexConfiguration(jas, bits))
            return built[-1]

        monkeypatch.setattr(selector_module, "IndexConfiguration", counting)
        candidate_pool.cache_clear()
        domain = {"A": 18, "B": 18, "C": 18}
        stats = make_stats({ap3("A"): 0.6, ap3("B", "C"): 0.4}, domain_bits=domain)
        pool = candidate_pool(jas3, (16, 16, 16), 64)
        assert len(pool) == 4913
        pool.cd_column(stats)
        assert built == []
        chosen = select_exhaustive(stats, jas3, 64)
        assert built == [chosen]
        # A second selection of the row returns the same object.
        assert select_exhaustive(stats, jas3, 64) is chosen
        assert len(built) == 1

    def test_iteration_yields_every_candidate_in_tie_break_order(self, jas3):
        pool = CandidatePool(jas3, (16, 16, 16), 64)
        configs = list(pool)
        keys = [(cfg.total_bits, cfg.bits) for cfg in configs]
        assert len(set(keys)) == len(configs) == 4913
        assert keys == sorted(keys)
        assert all(pool.config(row) is cfg for row, cfg in enumerate(configs))

    def test_foreign_jas_pattern_raises(self, jas3, jas4):
        foreign = AccessPattern.from_attributes(jas4, ["A"])
        with pytest.raises(ValueError, match="different JAS"):
            select_exhaustive(make_stats({foreign: 1.0}), jas3, 4)

    def test_tune_history_equals_the_reference_loop(self, monkeypatch):
        """Engine level: 120 ticks of the fast-drift paper scenario decide
        the same thing, round for round, with the oracle patched in."""

        def histories():
            scenario = PaperScenario(ScenarioParams(seed=31, phase_len=20, assess_interval=5))
            executor = scenario.make_executor("amri:sria")
            executor.run(120, scenario.make_generator())
            return {
                stream: [
                    (r.old_description, r.new_description, r.old_cd, r.new_cd, r.migrated)
                    for r in stem.tuner.history
                ]
                for stream, stem in executor.stems.items()
            }

        vector = histories()
        monkeypatch.setattr(selector_module, "select_exhaustive", reference_select_exhaustive)
        assert histories() == vector
        assert sum(map(len, vector.values())) >= 80  # 4 states x ~23 rounds
        assert any(migrated for h in vector.values() for *_, migrated in h)


class TestTable2Validation:
    """The paper's own worked example validates the model + selector."""

    def test_full_statistics_optimum(self, jas3, table2_frequencies):
        stats = make_stats(table2_frequencies)
        best = select_exhaustive(stats, jas3, 4)
        assert best == IndexConfiguration(jas3, {"A": 1, "B": 1, "C": 2})

    def test_csria_truncated_optimum(self, jas3, table2_frequencies):
        truncated = {ap: f for ap, f in table2_frequencies.items() if f >= 0.05}
        stats = make_stats(truncated)
        best = select_exhaustive(stats, jas3, 4)
        assert best == IndexConfiguration(jas3, {"B": 1, "C": 3})

    def test_full_beats_truncated_on_true_workload(self, jas3, table2_frequencies):
        """The IC chosen from full statistics must serve the true workload
        at least as cheaply as the IC chosen from truncated statistics."""
        stats_true = make_stats(table2_frequencies)
        ic_full = select_exhaustive(stats_true, jas3, 4)
        truncated = {ap: f for ap, f in table2_frequencies.items() if f >= 0.05}
        ic_trunc = select_exhaustive(make_stats(truncated), jas3, 4)
        assert estimate_cd(ic_full, stats_true) <= estimate_cd(ic_trunc, stats_true)


class TestIndexSelector:
    def test_uses_exhaustive_for_small_space(self, jas3, ap3):
        sel = IndexSelector(jas3, 6)
        stats = make_stats({ap3("A"): 1.0}, domain_bits={"A": 4})
        assert sel.select(stats) == select_exhaustive(stats, jas3, 6)

    def test_rejects_negative_budget(self, jas3):
        with pytest.raises(ValueError):
            IndexSelector(jas3, -1)


class TestHashPatternSelection:
    def test_top_k_by_frequency(self, jas3, table2_frequencies):
        top = select_hash_patterns(table2_frequencies, 2)
        freqs = sorted(table2_frequencies.values(), reverse=True)
        assert [table2_frequencies[p] for p in top] == freqs[:2]

    def test_excludes_full_scan(self, jas3, ap3):
        top = select_hash_patterns({ap3(): 0.9, ap3("A"): 0.1}, 2)
        assert top == [ap3("A")]

    def test_deterministic_tie_break(self, jas3, ap3):
        top = select_hash_patterns({ap3("B"): 0.5, ap3("A"): 0.5}, 1)
        assert top == [ap3("A")]  # lower mask wins

    def test_k_larger_than_patterns(self, jas3, ap3):
        assert len(select_hash_patterns({ap3("A"): 1.0}, 5)) == 1

    def test_rejects_bad_k(self, jas3, ap3):
        with pytest.raises(ValueError):
            select_hash_patterns({ap3("A"): 1.0}, 0)
