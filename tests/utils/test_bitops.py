"""Unit and property tests for repro.utils.bitops."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import bitops
from repro.utils.bitops import (
    HASH_MEMO_SIZE,
    bit_count,
    bits_needed,
    fragment,
    iter_submasks,
    iter_supermasks,
    mask_to_indices,
    memoize_int_hashes,
    splitmix64,
    stable_value_hash,
)
from repro.workloads.scenarios import PaperScenario, ScenarioParams

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


class TestBitCount:
    def test_zero(self):
        assert bit_count(0) == 0

    def test_all_ones(self):
        assert bit_count(0b1111) == 4

    @given(masks)
    def test_matches_bin_count(self, m):
        assert bit_count(m) == bin(m).count("1")


class TestBitsNeeded:
    @pytest.mark.parametrize(
        "n,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (256, 8), (257, 9)]
    )
    def test_values(self, n, expected):
        assert bits_needed(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bits_needed(0)

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_bits_suffice(self, n):
        b = bits_needed(n)
        assert 2**b >= n
        if b > 0:
            assert 2 ** (b - 1) < n


class TestMaskConversions:
    def test_round_trip(self):
        assert mask_to_indices(0b10110) == (1, 2, 4)

    def test_empty(self):
        assert mask_to_indices(0) == ()

    def test_rejects_negative_mask(self):
        with pytest.raises(ValueError):
            mask_to_indices(-5)

    @given(masks)
    def test_round_trip_property(self, m):
        assert sum(1 << i for i in mask_to_indices(m)) == m

    @given(st.sets(st.integers(min_value=0, max_value=30)))
    def test_indices_round_trip(self, idxs):
        assert set(mask_to_indices(sum(1 << i for i in idxs))) == idxs


class TestSubmasks:
    def test_full_enumeration(self):
        subs = list(iter_submasks(0b101))
        assert subs == [0b101, 0b100, 0b001, 0b000]

    def test_proper_excludes_self(self):
        assert 0b101 not in list(iter_submasks(0b101, proper=True))

    def test_proper_of_zero_is_empty(self):
        assert list(iter_submasks(0, proper=True)) == []

    @given(masks)
    def test_count_is_power_of_two(self, m):
        assert len(list(iter_submasks(m))) == 2 ** bit_count(m)

    @given(masks)
    def test_all_are_submasks(self, m):
        assert all(sub & m == sub for sub in iter_submasks(m))

    @given(masks)
    def test_unique(self, m):
        subs = list(iter_submasks(m))
        assert len(subs) == len(set(subs))


class TestSupermasks:
    def test_within_universe(self):
        sups = set(iter_supermasks(0b001, 0b011))
        assert sups == {0b001, 0b011}

    def test_proper(self):
        assert set(iter_supermasks(0b001, 0b011, proper=True)) == {0b011}

    def test_rejects_mask_outside_universe(self):
        with pytest.raises(ValueError):
            list(iter_supermasks(0b100, 0b011))

    @given(masks, masks)
    def test_supermask_property(self, m, extra):
        universe = m | extra
        for sup in iter_supermasks(m, universe):
            assert sup & m == m
            assert sup & ~universe == 0


class TestHashing:
    def test_splitmix_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_splitmix_64bit(self):
        assert 0 <= splitmix64(2**100) < 2**64

    def test_stable_hash_types(self):
        for v in [0, -7, "abc", b"abc", 3.14, None, True, False]:
            h = stable_value_hash(v)
            assert 0 <= h < 2**64
            assert stable_value_hash(v) == h

    def test_bool_hashes_as_the_int_it_equals(self):
        # Equal values, one hash: 1 == 1.0 == True and 0 == -0.0 == False.
        assert stable_value_hash(True) == stable_value_hash(1) == stable_value_hash(1.0)
        assert stable_value_hash(False) == stable_value_hash(0) == stable_value_hash(-0.0)
        assert stable_value_hash(1.5) != stable_value_hash(1)

    @given(st.integers())
    def test_int_hashes_are_splitmix64_of_the_low_64_bits(self, v):
        # The hash every golden case and exact quantity was recorded with.
        assert stable_value_hash(v) == splitmix64(v & (2**64 - 1))

    @given(st.integers(-(2**80), 2**80).map(float) | st.floats(allow_nan=False))
    def test_a_float_hashes_as_the_int_it_equals(self, v):
        if v.is_integer():
            assert stable_value_hash(v) == stable_value_hash(int(v))

    def test_negative_zero_float(self):
        assert stable_value_hash(-0.0) == stable_value_hash(0.0)

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_value_hash([1, 2])

    def test_fragment_zero_bits(self):
        assert fragment("anything", 0) == 0

    def test_fragment_range(self):
        for bits in (1, 3, 8):
            for v in range(50):
                assert 0 <= fragment(v, bits) < 2**bits

    def test_fragment_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            fragment(1, -1)

    @given(st.integers(), st.integers(min_value=1, max_value=16))
    def test_fragment_deterministic(self, v, bits):
        assert fragment(v, bits) == fragment(v, bits)

    def test_fragment_spreads(self):
        # 256 consecutive ints into 16 fragments: no fragment should be empty.
        frags = {fragment(i, 4) for i in range(256)}
        assert frags == set(range(16))


class TestHashMemo:
    def test_memo_holds_the_paper_domain_and_sparse_ingests_live_windows(self):
        paper = ScenarioParams()
        assert HASH_MEMO_SIZE >= paper.domain
        # The wide-domain ingest workload: 4 streams x rate 60 x window 20
        # live tuples, each with one value per JAS attribute.
        sparse = PaperScenario(ScenarioParams(rate=60, domain=262144))
        live = sum(
            sparse.params.rate * sparse.params.window * len(sparse.query.jas_for(stream))
            for stream in sparse.params.stream_names
        )
        assert live == 14_400
        assert HASH_MEMO_SIZE >= live


class TestVectorPass:
    """``memoize_int_hashes`` memoizes exactly what the scalar hash gives,
    for the exact ints it takes and for nothing else."""

    @staticmethod
    def memoized(values) -> dict:
        memo = bitops._HASH_MEMO
        memo.clear()
        memoize_int_hashes(values)
        return dict(memo)

    EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]

    def test_the_uint64_edges_hash_as_the_scalar_code(self):
        assert self.memoized(self.EDGES) == {v: stable_value_hash(v) for v in self.EDGES}

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_a_sample_hashes_as_the_scalar_code(self, values):
        assert self.memoized(values) == {v: stable_value_hash(v) for v in values}

    def test_only_exact_ints_in_range_enter(self):
        others = [True, False, 1.0, 2.5, float("nan"), "1", b"1", None, -1, -(2**63),
                  2**64, 2**70, [1], Decimal(3), np.int64(4), np.uint64(5)]
        assert self.memoized(others) == {}
        assert self.memoized([*others, 7]) == {7: stable_value_hash(7)}

    def test_a_value_the_memo_holds_is_not_hashed_again(self):
        memo = bitops._HASH_MEMO
        memo.clear()
        memo[3] = -1  # a planted entry the pass must leave alone
        memoize_int_hashes([3, 4])
        assert dict(memo) == {3: -1, 4: stable_value_hash(4)}
        memo.clear()

    def test_the_memo_stays_within_its_bound(self):
        memo = bitops._HASH_MEMO
        memo.clear()
        memoize_int_hashes(range(HASH_MEMO_SIZE - 10))
        memoize_int_hashes(range(HASH_MEMO_SIZE, HASH_MEMO_SIZE + 20))  # overflows: clears first
        assert len(memo) == 20
        memoize_int_hashes(range(2 * HASH_MEMO_SIZE))
        assert len(memo) == HASH_MEMO_SIZE
        assert all(memo[v] == stable_value_hash(v) for v in (0, HASH_MEMO_SIZE - 1))
        for v in range(-5, 0):  # scalar misses past the bound clear the memo too
            assert memo[v] == stable_value_hash(v)
        assert len(memo) <= HASH_MEMO_SIZE


class TestSupermaskCounts:
    @given(masks)
    def test_count_is_power_of_two_of_free_bits(self, m):
        universe = 0b111111111111
        free = bit_count(universe & ~m)
        m &= universe
        assert len(list(iter_supermasks(m, universe))) == 2**free

    @given(masks, masks)
    def test_sub_and_super_are_inverse_relations(self, a, b):
        universe = a | b
        assert (a in set(iter_submasks(b))) == (b in set(iter_supermasks(a, universe)) if (a & b) == a else False)
