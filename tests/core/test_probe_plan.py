"""Tests for compiled probe plans and their invalidation discipline.

A bit-address index's plan table is pure derived state, so the
load-bearing properties are (1) a plan computes exactly what the index used
to re-derive per probe, (2) every key-map change (a reconfigure, which is
how a migration happens) replaces the table, and (3) before and after a
store's migration the index probes under its current configuration's plans.
"""

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.bit_index import make_bit_index
from repro.core.index_config import IndexConfiguration
from repro.core.probe_plan import (
    Matcher,
    ProbePlan,
    compile_key_plan,
    compile_matcher,
    compile_probe_plan,
    _compile_row_selector,
)
from repro.engine.tuples import StreamTuple
from repro.storage import StateStore


def config(jas3, bits=(5, 2, 3)):
    return IndexConfiguration(jas3, list(bits))


class TestProbePlan:
    def test_fixed_positions_carry_name_and_width(self, jas3, ap3):
        plan = ProbePlan(config(jas3), ap3("A", "C"))
        assert plan.fixed == ((0, "A", 5), (2, "C", 3))

    def test_zero_width_attributes_are_not_fixed(self, jas3, ap3):
        # B carries 0 bits: probing it fixes nothing in the key space.
        plan = ProbePlan(config(jas3, (5, 0, 3)), ap3("A", "B"))
        assert plan.fixed == ((0, "A", 5),)
        assert plan.wildcard_bits == 3  # all of C remains free
        assert plan.point_slots is None

    def test_row_masks_locate_fixed_values_in_the_probe_row(self, jas3, ap3):
        # Rows are aligned with the pattern's attributes (B, C): C's value
        # is row[1] although C is JAS position 2; B carries no bits.
        plan = ProbePlan(config(jas3, (5, 0, 3)), ap3("B", "C"))
        assert plan.attributes == ("B", "C")
        assert plan.fixed == ((2, "C", 3),)
        assert plan.row_masks == ((1, 0b111),)

    def test_point_slots_assemble_the_bucket_key(self, jas3, ap3):
        # No wildcard bit left: per JAS position the fragment's index in
        # ``fixed``, and len(fixed) — the constant-0 slot — where no bits are.
        plan = ProbePlan(config(jas3, (5, 0, 3)), ap3("A", "C"))
        assert plan.wildcard_bits == 0
        assert plan.point_slots == (0, 2, 1)
        full = ProbePlan(config(jas3), ap3("A", "B", "C"))
        assert full.point_slots == (0, 1, 2)

    def test_wildcard_bits_match_configuration(self, jas3, ap3):
        cfg = config(jas3)
        for ap in (ap3(), ap3("A"), ap3("B", "C"), ap3("A", "B", "C")):
            assert ProbePlan(cfg, ap).wildcard_bits == cfg.wildcard_bits(ap)

    def test_enumerated_is_min_of_shift_and_live(self, jas3, ap3):
        plan = ProbePlan(config(jas3), ap3("A"))  # 5 wildcard bits -> cap 32
        assert plan.enumeration_cap == 32
        assert plan.enumerated(7) == 7
        assert plan.enumerated(32) == 32
        assert plan.enumerated(1000) == 32

    def test_huge_wildcard_width_never_caps(self, jas3, ap3):
        plan = ProbePlan(IndexConfiguration(jas3, [0, 0, 64]), ap3("A", "B"))
        assert plan.enumeration_cap is None
        assert plan.enumerated(10**9) == 10**9

    def test_rejects_foreign_jas(self, jas3):
        other = JoinAttributeSet(["X", "Y"])
        ap = AccessPattern.from_attributes(other, ["X"])
        with pytest.raises(ValueError, match="different JAS"):
            ProbePlan(config(jas3), ap)

    def test_compile_is_memoized(self, jas3, ap3):
        cfg = config(jas3)
        assert compile_probe_plan(cfg, ap3("A")) is compile_probe_plan(cfg, ap3("A"))


class TestSelectors:
    """The specialised filters must agree with the generic predicate for
    every arity, including operand order (item on the left)."""

    ITEMS = [
        {"A": a, "B": b, "C": c}
        for a in range(3)
        for b in range(2)
        for c in range(2)
    ]

    @pytest.mark.parametrize(
        "attrs", [(), ("A",), ("A", "B"), ("A", "B", "C")]
    )
    def test_matches_generic_filter_and_order(self, attrs):
        select = _compile_row_selector(attrs)
        values = {"A": 1, "B": 0, "C": 1}
        expected = [
            item
            for item in self.ITEMS
            if all(item[a] == values[a] for a in attrs)
        ]
        # Two groups (a probe's candidate buckets), walked in order.
        groups = (self.ITEMS[:5], self.ITEMS[5:])
        got = select(groups, tuple(values[a] for a in attrs))
        assert got == expected  # same items, same (insertion) order
        assert all(g is e for g, e in zip(got, expected))

    def test_four_plus_attributes_use_generic_path(self):
        jas = JoinAttributeSet(["A", "B", "C", "D"])
        ap = AccessPattern.from_attributes(jas, ["A", "B", "C", "D"])
        matcher = Matcher(ap)
        items = [{"A": 1, "B": 2, "C": 3, "D": 4}, {"A": 1, "B": 2, "C": 3, "D": 5}]
        assert matcher.select((items,), (1, 2, 3, 4)) == [items[0]]


class TestMatcher:
    def test_memoized_per_pattern(self, ap3):
        assert compile_matcher(ap3("B")) is compile_matcher(ap3("B"))

    def test_full_scan_flag(self, ap3):
        assert compile_matcher(ap3()).is_full_scan
        assert not compile_matcher(ap3("A")).is_full_scan


class TestCacheInvalidation:
    def test_lookup_populates_by_mask(self, jas3, ap3):
        index = make_bit_index(jas3, [5, 2, 3])
        ap = ap3("A", "B")
        index.search(ap, {"A": 1, "B": 2})
        plan = index._plans[ap.mask]
        assert plan is compile_probe_plan(index.config, ap) and list(index._plans) == [ap.mask]
        index.insert({"A": 1, "B": 2, "C": 3})  # drops the prober, keeps the plan
        index.search(ap, {"A": 1, "B": 2})
        assert index._plans[ap.mask] is plan

    def test_invalidate_drops_plans_and_rebinds(self, jas3, ap3):
        index = make_bit_index(jas3, [5, 2, 3])
        index.search(ap3("A"), {"A": 1})
        new = config(jas3, (1, 8, 1))
        index.reconfigure(new)
        assert index._plans == {}
        assert index._key_plan is compile_key_plan(new)
        assert index._key_plan.masks == (0b1, 0xFF, 0b1)
        index.search(ap3("A"), {"A": 1})
        assert index._plans[ap3("A").mask].wildcard_bits == new.wildcard_bits(ap3("A"))

    def test_reconfigure_invalidates_the_index_cache(self, jas3, ap3):
        index = make_bit_index(jas3, [5, 2, 3])
        index.search(ap3("A"), {"A": 1})
        assert index._plans[ap3("A").mask].wildcard_bits == 5

        new = IndexConfiguration(jas3, [2, 2, 2])
        index.reconfigure(new)
        assert index._plans == {}
        assert index.config == new
        index.search(ap3("A"), {"A": 1})
        assert index._plans[ap3("A").mask].wildcard_bits == 4

    def test_probe_workload_warms_one_plan_per_pattern(self, jas3, ap3):
        """k probed patterns -> k cached plans, however many rows and calls
        probe them, by name or as columns."""
        index = make_bit_index(jas3, {"A": 8, "B": 8, "C": 8})
        for i in range(200):
            index.insert({"A": i % 251, "B": (i * 7) % 239, "C": (i * 13) % 241})
        patterns = [ap3("A"), ap3("A", "B"), ap3("A", "B", "C")]
        for i in range(300):
            ap = patterns[i % 3]
            row = tuple((i, i * 7, i * 13)[: len(ap.attributes)])
            if i % 2:
                index.search(ap, dict(zip(ap.attributes, row)))
            else:
                index.search_batch(ap, [row])
        assert len(index._plans) == 3

    def test_search_results_survive_reconfigure(self, jas3, ap3):
        """End to end: cached plans never leak a stale key map into results."""
        index = make_bit_index(jas3, [5, 2, 3])
        items = [{"A": i % 4, "B": i % 3, "C": i % 5} for i in range(40)]
        for item in items:
            index.insert(item)
        ap, values = ap3("A", "C"), {"A": 2, "C": 1}
        expected = [i for i in items if i["A"] == 2 and i["C"] == 1]

        def key(tuples):
            return sorted((t["A"], t["B"], t["C"]) for t in tuples)

        before = index.search(ap, values).matches
        assert key(before) == key(expected)
        assert index.search(ap, values).matches == before  # deterministic order
        index.reconfigure(IndexConfiguration(jas3, [1, 6, 1]))
        after = index.search(ap, values).matches
        assert key(after) == key(expected)
        assert index.search(ap, values).matches == after


class TestDualStructureMigration:
    """A store's migration is one stop-the-world reconfigure of its one
    structure: before it the index probes with plans of the old
    configuration, after it with plans of the new one, and no plan of the
    old key map survives."""

    def populated_store(self, jas3):
        store = StateStore("S", jas3, make_bit_index(jas3, [2, 2, 2]), window=1000)
        for i in range(10):
            store.insert(
                StreamTuple("S", i, {"A": i % 4, "B": i % 3, "C": i % 5}), i
            )
        return store

    def test_each_structure_keeps_its_own_plans(self, jas3, ap3):
        store = self.populated_store(jas3)
        old_cfg = store.index.config
        store.probe(ap3("A"), {"A": 1})  # warm the pre-migration table
        assert store.index._plans[ap3("A").mask].wildcard_bits == old_cfg.wildcard_bits(ap3("A"))

        new_cfg = IndexConfiguration(jas3, [4, 1, 1])
        index = store.index
        index.reconfigure(new_cfg)
        assert store.index is index and index.config == new_cfg and index._plans == {}

        store.probe(ap3("A"), {"A": 1})
        assert index._plans[ap3("A").mask].wildcard_bits == new_cfg.wildcard_bits(ap3("A"))

    def test_mid_migration_probe_is_complete_and_ordered(self, jas3, ap3):
        """A probe after the migration returns exactly the tuples a
        never-migrated store returns."""
        reference = self.populated_store(jas3)
        store = self.populated_store(jas3)
        ap, values = ap3("A"), {"A": 1}

        store.index.reconfigure(IndexConfiguration(jas3, [4, 1, 1]))

        expected = [t["C"] for t in reference.probe(ap, values).matches]
        got = [t["C"] for t in store.probe(ap, values).matches]
        assert sorted(got) == sorted(expected) and len(got) == len(expected)
