"""Tests for index configurations (the bit-address key map)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.bit_index import BitAddressIndex
from repro.core.index_config import IndexConfiguration, uniform_configuration
from tests.conftest import bucket_key


class TestConstruction:
    def test_from_sequence(self, jas3):
        ic = IndexConfiguration(jas3, [5, 2, 3])
        assert ic.bits == (5, 2, 3)
        assert ic.total_bits == 10

    def test_from_mapping(self, jas3):
        ic = IndexConfiguration(jas3, {"A": 5, "C": 3})
        assert ic.bits == (5, 0, 3)

    def test_rejects_wrong_length(self, jas3):
        with pytest.raises(ValueError):
            IndexConfiguration(jas3, [1, 2])

    def test_rejects_unknown_attr(self, jas3):
        with pytest.raises(ValueError):
            IndexConfiguration(jas3, {"Z": 1})

    def test_rejects_negative(self, jas3):
        with pytest.raises(ValueError):
            IndexConfiguration(jas3, [1, -1, 0])

    def test_equality_and_hash(self, jas3):
        a = IndexConfiguration(jas3, [1, 2, 3])
        b = IndexConfiguration(jas3, {"A": 1, "B": 2, "C": 3})
        assert a == b and hash(a) == hash(b)

    def test_repr_mentions_widths(self, jas3):
        assert "A:5" in repr(IndexConfiguration(jas3, [5, 0, 3]))


class TestPatternBits:
    def test_bits_for_pattern(self, jas3, ap3):
        ic = IndexConfiguration(jas3, [5, 2, 3])
        assert ic.bits_for_pattern(ap3("A", "C")) == 8
        assert ic.bits_for_pattern(ap3()) == 0

    def test_wildcard_bits(self, jas3, ap3):
        ic = IndexConfiguration(jas3, [5, 2, 3])
        assert ic.wildcard_bits(ap3("A", "C")) == 2
        assert ic.wildcard_bits(ap3()) == 10

    def test_indexed_attributes(self, jas3):
        ic = IndexConfiguration(jas3, [5, 0, 3])
        assert ic.indexed_attributes == ("A", "C")

    def test_rejects_foreign_pattern(self, jas3):
        ic = IndexConfiguration(jas3, [1, 1, 1])
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["X"]), ["X"])
        with pytest.raises(ValueError):
            ic.bits_for_pattern(foreign)


class TestBucketMapping:
    """The reference key map tests name buckets with."""

    def test_bucket_key_shape(self, jas3):
        ic = IndexConfiguration(jas3, [5, 2, 3])
        values = {"A": 10, "B": 20, "C": 30}
        key = bucket_key(ic, values)
        assert len(key) == 3
        assert 0 <= key[0] < 32 and 0 <= key[1] < 4 and 0 <= key[2] < 8
        idx = BitAddressIndex(ic)
        idx.insert(values)
        assert list(idx._buckets) == [key]  # the index files it there

    def test_zero_bit_attribute_contributes_zero(self, jas3):
        ic = IndexConfiguration(jas3, [4, 0, 4])
        k1 = bucket_key(ic, {"A": 1, "B": 100, "C": 2})
        k2 = bucket_key(ic, {"A": 1, "B": 999, "C": 2})
        assert k1 == k2

    def test_deterministic(self, jas3):
        ic = IndexConfiguration(jas3, [5, 2, 3])
        v = {"A": "x", "B": 2.5, "C": None}
        assert bucket_key(ic, v) == bucket_key(ic, v)

    @given(st.integers(), st.integers(), st.integers())
    def test_equal_values_same_bucket(self, a, b, c):
        jas = JoinAttributeSet(["A", "B", "C"])
        ic = IndexConfiguration(jas, [6, 5, 5])
        v = {"A": a, "B": b, "C": c}
        assert bucket_key(ic, v) == bucket_key(ic, dict(v))


class TestUniformConfiguration:
    def test_even_split(self, jas3):
        assert uniform_configuration(jas3, 9).bits == (3, 3, 3)

    def test_remainder_to_early_attrs(self, jas3):
        assert uniform_configuration(jas3, 10).bits == (4, 3, 3)

    def test_zero(self, jas3):
        assert uniform_configuration(jas3, 0).total_bits == 0

    def test_rejects_negative(self, jas3):
        with pytest.raises(ValueError):
            uniform_configuration(jas3, -1)
