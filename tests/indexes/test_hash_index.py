"""Tests for the multi-hash-index access modules (the Raman baseline)."""

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.indexes.hash_index import MultiHashIndex

ITEMS = [{"A": i % 4, "B": i % 3, "C": i % 5} for i in range(60)]


@pytest.fixture
def index(jas3, ap3):
    return MultiHashIndex(jas3, [ap3("A"), ap3("A", "B"), ap3("B", "C")])


class TestModuleSelection:
    """Section I-A's worked example: picking the most suitable module."""

    def test_exact_module_preferred(self, index, ap3):
        module = index.most_suitable_module(ap3("A", "B"))
        assert module.pattern == ap3("A", "B")

    def test_largest_subset_wins(self, index, ap3):
        # sr1-style: request on {A, C}; only module A qualifies.
        module = index.most_suitable_module(ap3("A", "C"))
        assert module.pattern == ap3("A")

    def test_no_suitable_module_means_scan(self, index, ap3):
        # sr2-style: request on {C}; no module indexes a subset of {C}.
        assert index.most_suitable_module(ap3("C")) is None
        for item in ITEMS:
            index.insert(item)
        out = index.search(ap3("C"), {"C": 2})
        assert out.used_full_scan
        assert out.tuples_examined == 60

    def test_module_with_extra_attr_not_suitable(self, jas3, ap3):
        idx = MultiHashIndex(jas3, [ap3("A", "B")])
        assert idx.most_suitable_module(ap3("A")) is None


class TestStorage:
    def test_insert_updates_all_modules(self, index, ap3):
        for item in ITEMS:
            index.insert(item)
        for pattern in index.patterns:
            values = {a: ITEMS[0][a] for a in pattern.attributes}
            out = index.search(pattern, values)
            assert not out.used_full_scan
            assert all(item[a] == values[a] for item in out.matches for a in pattern.attributes)

    def test_remove(self, index, ap3):
        for item in ITEMS:
            index.insert(item)
        index.remove(ITEMS[0])
        assert index.size == 59
        out = index.search(ap3("A"), {"A": ITEMS[0]["A"]})
        assert ITEMS[0] not in out.matches

    def test_remove_unknown(self, index):
        with pytest.raises(KeyError):
            index.remove({"A": 0, "B": 0, "C": 0})

    def test_memory_scales_with_modules(self, jas3, ap3):
        one = MultiHashIndex(jas3, [ap3("A")])
        three = MultiHashIndex(jas3, [ap3("A"), ap3("B"), ap3("C")])
        for item in ITEMS:
            one.insert(item)
            three.insert(item)
        assert three.memory_bytes > one.memory_bytes
        # per-tuple overhead: one entry per module plus the base slot
        params = one.cost_params
        assert one.memory_bytes == 60 * (params.index_entry_bytes + params.bucket_slot_bytes)

    def test_maintenance_hash_charges(self, jas3, ap3):
        idx = MultiHashIndex(jas3, [ap3("A", "B"), ap3("C")])
        idx.insert(ITEMS[0])
        assert idx.accountant.hashes == 3  # 2 for {A,B} + 1 for {C}


class TestRetuning:
    def test_set_patterns_builds_and_drops(self, jas3, ap3):
        idx = MultiHashIndex(jas3, [ap3("A")])
        for item in ITEMS:
            idx.insert(item)
        idx.set_patterns([ap3("B")])
        assert idx.patterns == (ap3("B"),)
        out = idx.search(ap3("B"), {"B": 1})
        assert not out.used_full_scan
        assert len(out.matches) == sum(1 for i in ITEMS if i["B"] == 1)

    def test_bulk_build_charged(self, jas3, ap3):
        idx = MultiHashIndex(jas3, [])
        for item in ITEMS:
            idx.insert(item)
        before = idx.accountant.snapshot()
        idx.set_patterns([ap3("A", "B")])
        assert idx.accountant.hashes - before.hashes == 60 * 2
        assert idx.accountant.moves - before.moves == 60

    def test_drop_frees_memory(self, jas3, ap3):
        idx = MultiHashIndex(jas3, [ap3("A")])
        for item in ITEMS:
            idx.insert(item)
        before = idx.memory_bytes
        idx.set_patterns([])
        assert idx.memory_bytes < before

    def test_rejects_full_scan_module(self, jas3, ap3):
        with pytest.raises(ValueError):
            MultiHashIndex(jas3, [ap3()])
        idx = MultiHashIndex(jas3)
        with pytest.raises(ValueError):
            idx.set_patterns([ap3()])

    def test_rejects_foreign_pattern(self, jas3):
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["X"]), ["X"])
        with pytest.raises(ValueError):
            MultiHashIndex(jas3, [foreign])
