"""Tests for the per-attribute inverted-list baseline."""

import pytest

from repro.indexes.inverted_index import InvertedListIndex

ITEMS = [{"A": i % 5, "B": i % 3, "C": i % 7} for i in range(60)]


@pytest.fixture
def index(jas3):
    idx = InvertedListIndex(jas3)
    for item in ITEMS:
        idx.insert(item)
    return idx


class TestInvertedListIndex:
    def test_single_attribute_probe(self, index, ap3):
        out = index.search(ap3("B"), {"B": 1})
        assert len(out.matches) == sum(1 for i in ITEMS if i["B"] == 1)
        assert not out.used_full_scan

    def test_multi_attribute_intersection(self, index, ap3):
        out = index.search(ap3("A", "C"), {"A": 2, "C": 2})
        expected = [i for i in ITEMS if i["A"] == 2 and i["C"] == 2]
        assert len(out.matches) == len(expected)

    def test_examines_smallest_list(self, index, ap3):
        out = index.search(ap3("A", "B", "C"), {"A": 0, "B": 0, "C": 0})
        # cost is bounded by the smallest posting list, not the state
        assert out.tuples_examined <= min(
            sum(1 for i in ITEMS if i[a] == 0) for a in "ABC"
        )

    def test_full_scan_pattern(self, index, ap3):
        assert len(index.search(ap3(), {}).matches) == 60

    def test_missing_value_empty(self, index, ap3):
        assert index.search(ap3("A"), {"A": 999}).matches == []

    def test_remove(self, index, ap3):
        index.remove(ITEMS[0])
        assert index.size == 59
        with pytest.raises(KeyError):
            index.remove(ITEMS[0])

    def test_memory_per_attribute(self, jas3):
        idx = InvertedListIndex(jas3)
        idx.insert(ITEMS[0])
        params = idx.cost_params
        assert idx.memory_bytes == params.bucket_slot_bytes + 3 * params.index_entry_bytes
        idx.remove(ITEMS[0])
        assert idx.memory_bytes == 0

    def test_runs_as_engine_scheme(self):
        from repro.workloads.scenarios import PaperScenario, ScenarioParams

        sc = PaperScenario(ScenarioParams(seed=5))
        ex = sc.make_executor("inverted", capacity=1e9, memory_budget=1 << 30)
        stats = ex.run(20, sc.make_generator())
        assert stats.outputs > 0
