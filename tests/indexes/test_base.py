"""Tests for the index-layer foundation: cost params, accountant, outcomes,
and what all five index classes share."""

from decimal import Decimal

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.bit_index import BitAddressIndex, MigrationReport
from repro.core.index_config import IndexConfiguration
from repro.engine.kernel.stages import TickState
from repro.engine.tracing import EngineEvent
from repro.indexes.base import (
    Accountant,
    CostParams,
    SearchOutcome,
    StateIndex,
    UnkeyableValueError,
)
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.storage import StateStore
from tests.conftest import INDEX_CLASSES, build_index


class TestCostParams:
    def test_frozen(self):
        p = CostParams()
        with pytest.raises(Exception):
            p.c_hash = 2.0

    def test_custom_values(self):
        p = CostParams(c_hash=3.0, tuple_bytes=10)
        assert p.c_hash == 3.0 and p.tuple_bytes == 10

    @pytest.mark.parametrize(
        "name", ["c_hash", "c_compare", "c_bucket", "c_insert", "c_delete", "c_move",
                 "c_output", "c_route"]
    )
    def test_rejects_a_negative_unit_cost(self, name):
        """A negative unit cost would only fail at its first charge."""
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1.0$"):
            CostParams(**{name: -1.0})

    @pytest.mark.parametrize(
        "name", ["tuple_bytes", "index_entry_bytes", "bucket_bytes", "bucket_slot_bytes",
                 "queue_item_bytes", "stat_entry_bytes"]
    )
    @pytest.mark.parametrize("size", [0, -8])
    def test_rejects_a_byte_size_below_one(self, name, size):
        """``queue_item_bytes=0`` divided by zero when the backlog was shed."""
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {size}$"):
            CostParams(**{name: size})

    def test_zero_unit_costs_construct(self):
        """A model that charges only routing (``TestSchedulers``) stays legal."""
        p = CostParams(c_hash=0.0, c_compare=0.0, c_bucket=0.0, c_insert=0.0,
                       c_delete=0.0, c_move=0.0, c_output=0.0, c_route=1.0)
        assert p.c_hash == 0.0 and p.c_route == 1.0


class TestAccountant:
    def test_cost_formula(self):
        p = CostParams()
        a = Accountant(hashes=2, comparisons=3, buckets_visited=4, tuples_examined=5,
                       inserts=6, deletes=7, moves=8)
        expected = (
            2 * p.c_hash + 3 * p.c_compare + 4 * p.c_bucket + 5 * p.c_compare
            + 6 * p.c_insert + 7 * p.c_delete + 8 * p.c_move
        )
        assert a.cost(p) == pytest.approx(expected)

    def test_snapshot_is_independent(self):
        a = Accountant(hashes=1)
        snap = a.snapshot()
        a.hashes += 10
        assert snap.hashes == 1

    def test_cost_since(self):
        p = CostParams()
        a = Accountant()
        before = a.snapshot()
        a.tuples_examined += 10
        assert a.cost_since(before, p) == pytest.approx(10 * p.c_compare)

    def test_memory_gauge_not_in_cost(self):
        p = CostParams()
        a = Accountant(index_bytes=10_000)
        assert a.cost(p) == 0.0


class TestSearchOutcome:
    def test_len_and_iter(self):
        o = SearchOutcome(matches=[{"a": 1}, {"a": 2}])
        assert len(o) == 2
        assert [m["a"] for m in o] == [1, 2]

    def test_defaults(self):
        o = SearchOutcome()
        assert o.matches == [] and not o.used_full_scan


def test_hot_dataclasses_are_slotted():
    """The per-probe, per-event and per-tick records carry no instance
    ``__dict__``."""
    for cls in (SearchOutcome, EngineEvent, MigrationReport, TickState):
        assert "__slots__" in vars(cls), cls.__name__
        assert cls.__dictoffset__ == 0, cls.__name__


class Dummy(StateIndex):
    """The least a backend writes: the two storage hooks and the row hook."""

    def __init__(self, jas, stored=()):
        super().__init__(jas)
        self.stored = list(stored)
        self.probed = []

    def _insert(self, item, row):
        self.stored.append(item)
        return item

    def _remove(self, item, entry):
        self.stored.remove(entry)

    def _row_prober(self, ap):
        attrs = ap.attributes

        def probe_row(row):
            self.probed.append(row)
            matches = [
                item for item in self.stored
                if all(item[a] == v for a, v in zip(attrs, row))
            ]
            return SearchOutcome(matches, buckets_visited=2, tuples_examined=len(self.stored))

        return 3, probe_row


class TestStateIndexHelpers:
    """``search`` and ``search_batch`` are the base class's, over the hook."""

    JAS = JoinAttributeSet(["A", "B"])

    def ap(self, *names):
        return AccessPattern.from_attributes(self.JAS, names)

    def test_probe_validation(self):
        d = Dummy(self.JAS)
        d.search(self.ap("A"), {"A": 1})  # fine
        with pytest.raises(KeyError):
            d.search(self.ap("A"), {"B": 1})
        with pytest.raises(KeyError, match="A"):
            d.search_batch(self.ap("A"), [(1,), ()])
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["X"]), ["X"])
        with pytest.raises(ValueError):
            d.search(foreign, {"X": 1})
        with pytest.raises(ValueError):
            d.search_batch(foreign, [(1,)])
        # Only the valid search probed; no bad call charged anything.
        assert d.probed == [(1,)]
        assert d.accountant == Accountant(hashes=3, buckets_visited=2)

    def test_an_equal_jas_passes_and_a_foreign_one_is_refused(self):
        """``_check_jas`` compares JAS objects by value: an equal one passes,
        and a foreign one is refused before any charge."""
        d = Dummy(self.JAS)
        twin = JoinAttributeSet(["A", "B"])  # equal, another object
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["X", "B"]), ["B"])
        d.search_batch(AccessPattern.from_attributes(twin, ["A"]), [(1,)])
        with pytest.raises(ValueError, match="different JAS"):
            d.search_batch(foreign, [(1,)])
        with pytest.raises(ValueError, match="different JAS"):
            d.search(foreign, {"B": 1})
        assert d.probed == [(1,)]
        assert d.accountant == Accountant(hashes=3, buckets_visited=2)

    def test_search_reads_values_into_a_row_in_pattern_order(self):
        item = {"A": 1, "B": 9}
        d = Dummy(self.JAS, [item, {"A": 2, "B": 9}])
        out = d.search(self.ap("A", "B"), {"B": 9, "A": 1, "extra": 0})
        assert d.probed == [(1, 9)]
        assert out.matches == [item]

    def test_column_charges_per_row_and_shares_equal_rows(self):
        d = Dummy(self.JAS, [{"A": 1, "B": 9}, {"A": 2, "B": 9}])
        first, second, again = d.search_batch(self.ap("A"), [(1,), (2,), (1,)])
        assert d.probed == [(1,), (2,)]  # the repeated row did not probe again
        assert again is first and second is not first
        # ...but it is charged: three rows' hashes, visits and examinations.
        assert d.accountant == Accountant(hashes=9, buckets_visited=6, tuples_examined=6)

    def test_a_column_refuses_an_unkeyable_row(self):
        d = Dummy(self.JAS, [{"A": 1, "B": 9}])
        for bad in ([1], float("nan"), Decimal(2)):
            with pytest.raises(UnkeyableValueError) as refused:
                d.search_batch(self.ap("A", "B"), [(1, 9), (bad, 9), (1, 9)])
            assert (refused.value.attribute, refused.value.value_type) == ("A", type(bad))
        # The first row probed each time (the hook reads, charges nothing);
        # nothing was charged, and the refused rows never reached the hook.
        assert d.probed == [(1, 9)] * 3
        assert d.accountant == Accountant()
        # A row equal to one the column answered shares that answer.
        first, again = d.search_batch(self.ap("A"), [(1,), (Decimal(1),)])
        assert again is first

    def test_default_accountant_and_params(self):
        d = Dummy(JoinAttributeSet(["A"]))
        assert isinstance(d.accountant, Accountant)
        assert isinstance(d.cost_params, CostParams)
        assert d.memory_bytes == 0
        assert "Dummy" in d.describe()

    def test_the_base_owns_identity_charges_and_size(self):
        d = Dummy(self.JAS)
        item = {"A": 1, "B": 2}
        d.insert(item)
        assert d.stored == [item] and d.size == 1
        assert d.accountant == Accountant(inserts=1, index_bytes=8)
        with pytest.raises(ValueError, match="already stored"):
            d.insert(item)
        with pytest.raises(KeyError, match="never inserted"):
            d.remove({"A": 1, "B": 2})  # equal, but not the stored object
        assert d.stored == [item] and d.accountant == Accountant(inserts=1, index_bytes=8)
        d.remove(item)
        assert d.stored == [] and d.size == 0
        assert d.accountant == Accountant(inserts=1, deletes=1)


class TestIndexClasses:
    """What the storage layer reads off an index class, and the storage
    contract all five keep."""

    def test_reconfigurable_and_unindexed_per_class(self):
        # Only the bit-address classes have a key map to reconfigure.
        flags = {cls: (hasattr(cls, "reconfigure"), cls.unindexed) for cls in INDEX_CLASSES}
        assert flags == {
            BitAddressIndex: (True, False),
            StaticBitmapIndex: (True, False),
            MultiHashIndex: (False, False),
            InvertedListIndex: (False, False),
            ScanIndex: (False, True),
        }
        assert not hasattr(StateIndex, "reconfigure") and not StateIndex.unindexed
        assert not Dummy.unindexed

    def test_a_subclass_inherits_its_parents_flags(self, jas3):
        class CustomScan(ScanIndex):
            pass

        class CustomBits(BitAddressIndex):
            pass

        assert StateStore("S", jas3, CustomScan(jas3), window=10).degraded

        store = StateStore("S", jas3, build_index(CustomBits, jas3), window=10)
        assert not store.degraded
        index = store.index
        index.reconfigure(IndexConfiguration(jas3, [4, 1, 1]))  # a migration is in place
        assert store.index is index and type(index) is CustomBits

    def test_static_bitmap_refuses_a_budgeted_migration(self, jas3):
        store = StateStore("S", jas3, build_index(StaticBitmapIndex, jas3), window=10)
        with pytest.raises(RuntimeError, match="StaticBitmapIndex is non-adapting"):
            store.index.reconfigure(IndexConfiguration(jas3, [4, 1, 1]))

    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
    def test_stores_finds_and_removes_by_identity(self, cls, jas3, ap3):
        index = build_index(cls, jas3)
        item = {"A": 1, "B": 2, "C": 3}
        index.insert(item)
        [found] = index.search(ap3("A"), {"A": 1}).matches
        assert found is item
        # A second insert of one object would count it twice and a single
        # remove would leave a phantom behind: refused before any charge.
        before = index.accountant.snapshot()
        with pytest.raises(ValueError, match="item is already stored in this index"):
            index.insert(item)
        assert index.accountant == before and index.size == 1
        index.remove(item)
        assert index.size == 0 and index.memory_bytes == 0
        assert not index.search(ap3("A"), {"A": 1}).matches

    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
    def test_a_one_row_column_answers_as_a_longer_one(self, cls, jas3):
        """A one-row column has its own branch.  Its outcome, and the charge
        it makes, are those of the same row in a column that takes the
        general path (the row twice: shared, and charged per row), and it
        refuses what that column refuses, before any charge."""
        items = [{"A": a, "B": b, "C": a * b} for a in range(3) for b in range(3)]
        one, general = build_index(cls, jas3), build_index(cls, jas3)
        for item in items:
            one.insert(item)
            general.insert(item)

        def counters(index):
            acct = index.accountant
            return acct.hashes, acct.buckets_visited, acct.tuples_examined

        def answer(outcome):
            return (
                [id(m) for m in outcome.matches],
                outcome.buckets_visited,
                outcome.tuples_examined,
                outcome.used_full_scan,
            )

        probes = [{"A": 1, "B": 2, "C": 2}, {"A": 2, "B": 0, "C": 7}, {"A": 5, "B": 5, "C": 5}]
        for mask in range(jas3.full_mask + 1):
            ap = AccessPattern.from_mask(jas3, mask)
            for values in probes:
                row = tuple(values[a] for a in ap.attributes)
                before_one, before_general = counters(one), counters(general)
                [got] = one.search_batch(ap, [row])
                first, again = general.search_batch(ap, [row, row])
                assert again is first and answer(got) == answer(first)
                one_delta = [n - b for n, b in zip(counters(one), before_one)]
                general_delta = [n - b for n, b in zip(counters(general), before_general)]
                assert [2 * d for d in one_delta] == general_delta

        ap = AccessPattern.from_attributes(jas3, ["A", "B"])
        charged = one.accountant.snapshot()
        with pytest.raises(KeyError, match="does not supply the 2"):
            one.search_batch(ap, [(1,)])
        for bad in (float("nan"), [1], Decimal(1)):
            for index, rows in ((one, [(1, bad)]), (general, [(1, bad), (1, bad)])):
                with pytest.raises(UnkeyableValueError) as refused:
                    index.search_batch(ap, rows)
                assert (refused.value.attribute, refused.value.value_type) == ("B", type(bad))
        assert one.accountant == charged

    @pytest.mark.parametrize("position", ["A", "B", "C"])
    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
    def test_a_refused_insert_leaves_the_index_as_it_was(self, cls, position, jas3):
        """An unhashable value is refused by name with the index untouched,
        and the tuple cannot be removed."""
        index = build_index(cls, jas3)
        good = {"A": 1, "B": 2, "C": 3}
        index.insert(good)
        patterns = [AccessPattern.from_mask(jas3, mask) for mask in range(jas3.full_mask + 1)]

        def answers():
            out = []
            for ap in patterns:
                [outcome] = index.search_batch(ap, [tuple(good[a] for a in ap.attributes)])
                out.append(([id(m) for m in outcome.matches], outcome.buckets_visited,
                            outcome.tuples_examined))
            return out

        before = answers()
        size, acct = index.size, index.accountant.snapshot()
        odd = {**good, position: [1]}
        with pytest.raises(UnkeyableValueError) as refused:
            index.insert(odd)
        assert (refused.value.attribute, refused.value.value_type) == (position, list)
        assert index.size == size and index.accountant == acct
        assert answers() == before
        with pytest.raises(KeyError):
            index.remove(odd)
