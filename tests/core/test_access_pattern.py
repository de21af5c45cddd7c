"""Tests for access patterns, BR(ap), and the search-benefit relation."""

from collections import Counter
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.access_pattern import (
    AccessPattern,
    JoinAttributeSet,
    all_access_patterns,
)


class TestJoinAttributeSet:
    def test_order_is_significant(self):
        a = JoinAttributeSet(["A", "B"])
        b = JoinAttributeSet(["B", "A"])
        assert a != b

    def test_positions(self, jas3):
        assert jas3.position("A") == 0
        assert jas3.position("C") == 2

    def test_unknown_attribute(self, jas3):
        with pytest.raises(KeyError):
            jas3.position("Z")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JoinAttributeSet([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            JoinAttributeSet(["A", "A"])

    def test_rejects_wildcard_name(self):
        with pytest.raises(ValueError):
            JoinAttributeSet(["A", "*"])

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            JoinAttributeSet(["A", 3])

    def test_full_mask(self, jas3):
        assert jas3.full_mask == 0b111

    def test_container_protocol(self, jas3):
        assert "A" in jas3
        assert "Z" not in jas3
        assert list(jas3) == ["A", "B", "C"]
        assert len(jas3) == 3

    def test_hashable(self, jas3):
        assert hash(jas3) == hash(JoinAttributeSet(["A", "B", "C"]))


class TestBRMapping:
    """The paper's BR(ap) examples from Section IV-C1."""

    def test_single_attribute_A_is_4(self, ap3):
        # <A,*,*> over {A,B,C} has BR = 100 = 4 (paper's Section IV-C1).
        assert ap3("A").br_string() == "100"
        assert ap3("A").br_number() == 4

    def test_BC_is_3(self, ap3):
        # <*,B,C> has BR = 011 = 3.
        assert ap3("B", "C").br_string() == "011"
        assert ap3("B", "C").br_number() == 3

    def test_full_scan_is_zero(self, jas3):
        assert AccessPattern.full_scan(jas3).mask == 0

    def test_vector_notation(self, ap3):
        assert ap3("A", "C").vector() == ("A", "*", "C")
        assert repr(ap3("A", "C")) == "<A, *, C>"

    def test_mask_round_trip(self, jas3):
        for mask in range(8):
            ap = AccessPattern.from_mask(jas3, mask)
            assert AccessPattern.from_attributes(jas3, ap.attributes) == ap

    def test_rejects_out_of_range_mask(self, jas3):
        with pytest.raises(ValueError):
            AccessPattern.from_mask(jas3, 8)

    def test_rejects_wrong_jas_type(self):
        with pytest.raises(TypeError):
            AccessPattern("notajas", 0)


class TestPatternViews:
    def test_n_attributes(self, ap3):
        assert ap3().n_attributes == 0
        assert ap3("A", "B", "C").n_attributes == 3

    def test_uses(self, ap3):
        p = ap3("A", "C")
        assert p.uses("A") and p.uses("C") and not p.uses("B")

    def test_is_full_scan(self, ap3):
        assert ap3().is_full_scan
        assert not ap3("A").is_full_scan

    def test_ordering_and_hash(self, ap3):
        assert ap3("A") != ap3("B")
        assert len({ap3("A"), ap3("A"), ap3("B")}) == 2
        assert sorted([ap3("A"), ap3()]) == [ap3(), ap3("A")]


class TestSearchBenefit:
    """Definition 1: ap1 ≺ ap2 iff attrs(ap1) ⊆ attrs(ap2)."""

    def test_reflexive(self, ap3):
        assert ap3("A", "B").provides_search_benefit_to(ap3("A", "B"))

    def test_subset_benefits(self, ap3):
        assert ap3("A").provides_search_benefit_to(ap3("A", "B"))
        assert ap3().provides_search_benefit_to(ap3("C"))

    def test_superset_does_not(self, ap3):
        assert not ap3("A", "B").provides_search_benefit_to(ap3("A"))

    def test_disjoint_does_not(self, ap3):
        assert not ap3("B").provides_search_benefit_to(ap3("A", "C"))

    def test_proper_excludes_equal(self, ap3):
        assert not ap3("A").is_proper_generalization_of(ap3("A"))
        assert ap3("A").is_proper_generalization_of(ap3("A", "C"))

    def test_cross_jas_rejected(self, ap3):
        """Both relations refuse a pattern over another JAS, also when the
        two masks are equal (``<A,*,*>`` and ``<X,*>`` are both 0b1)."""
        xy = JoinAttributeSet(["X", "Y"])
        for relation in ("provides_search_benefit_to", "is_proper_generalization_of"):
            for mask in (0b1, 0b11):  # equal to <A,*,*>'s, and not
                with pytest.raises(ValueError):
                    getattr(ap3("A"), relation)(AccessPattern.from_mask(xy, mask))

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_matches_subset_semantics(self, m1, m2):
        jas = JoinAttributeSet(["A", "B", "C"])
        p1, p2 = AccessPattern.from_mask(jas, m1), AccessPattern.from_mask(jas, m2)
        assert p1.provides_search_benefit_to(p2) == (set(p1.attributes) <= set(p2.attributes))


class TestLatticeNeighbours:
    def test_parents_remove_one(self, ap3):
        assert set(ap3("A", "B").parents()) == {ap3("A"), ap3("B")}

    def test_top_has_no_parents(self, ap3):
        assert ap3().parents() == ()

    def test_children_add_one(self, ap3):
        assert set(ap3("A").children()) == {ap3("A", "B"), ap3("A", "C")}

    def test_bottom_has_no_children(self, ap3):
        assert ap3("A", "B", "C").children() == ()

    def test_level(self, ap3):
        assert ap3().level() == 0
        assert ap3("A", "B", "C").level() == 3

    def test_generalizations_count(self, ap3):
        assert len(list(ap3("A", "B").generalizations())) == 4
        assert len(list(ap3("A", "B").generalizations(proper=True))) == 3

    def test_specializations_count(self, ap3):
        assert len(list(ap3("A").specializations())) == 4

    @given(st.integers(0, 15))
    def test_parent_child_inverse(self, m):
        jas = JoinAttributeSet(["A", "B", "C", "D"])
        p = AccessPattern.from_mask(jas, m)
        for parent in p.parents():
            assert p in parent.children()
        for child in p.children():
            assert p in child.parents()


class TestFigure4Lattice:
    """Fig. 4's shape, read off ``AccessPattern``'s relations."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_shape(self, n):
        jas = JoinAttributeSet("ABCD"[:n])
        patterns = all_access_patterns(jas)
        levels = Counter(ap.level() for ap in patterns)
        assert [levels[k] for k in range(n + 1)] == [comb(n, k) for k in range(n + 1)]
        assert sum(len(ap.parents()) for ap in patterns) == n * 2 ** (n - 1)
        top = AccessPattern.full_scan(jas)
        assert len(list(top.specializations(proper=True))) == 2**n - 1


class TestAllAccessPatterns:
    def test_counts(self, jas3):
        assert len(all_access_patterns(jas3)) == 8
        # The paper's "7 possible access patterns" for 3 join attributes.
        assert len(all_access_patterns(jas3, include_full_scan=False)) == 7

    def test_unique(self, jas3):
        pats = all_access_patterns(jas3)
        assert len(set(pats)) == len(pats)
