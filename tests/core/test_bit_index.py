"""Tests for the AMRI bit-address index: storage, search, charges and
migration by example, the corners of the match order the golden corpus pins
(held to the reference walk) and of the count probe (held to the walk-only
twin).  Every history of inserts, expiries and migrations is held to a
never-probed rebuild by ``tests/storage/test_store_machine.py``."""

import random
import re
from collections import Counter
from collections.abc import Mapping
from decimal import Decimal

import pytest

from repro.core import bit_index
from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.bit_index import BitAddressIndex, make_bit_index
from repro.core.index_config import IndexConfiguration, uniform_configuration
from repro.core.probe_plan import compile_probe_plan
from repro.indexes.base import Accountant, UnkeyableValueError
from repro.indexes.scan_index import ScanIndex
from repro.utils import bitops
from repro.utils.bitops import fragment
from tests.conftest import (
    WalkOnly,
    assert_slots_are_consistent,
    bucket_key,
    count_asks,
    reference_matches,
)


def make_items(n, *, mod=(7, 3, 5)):
    return [{"A": i % mod[0], "B": i % mod[1], "C": i % mod[2]} for i in range(n)]


@pytest.fixture
def index(jas3):
    return make_bit_index(jas3, {"A": 5, "B": 2, "C": 3})


class TestStorage:
    def test_insert_and_size(self, index):
        for item in make_items(10):
            index.insert(item)
        assert index.size == 10

    def test_remove(self, index):
        items = make_items(10)
        for item in items:
            index.insert(item)
        index.remove(items[3])
        assert index.size == 9

    def test_remove_unknown_raises(self, index):
        with pytest.raises(KeyError):
            index.remove({"A": 1, "B": 1, "C": 1})

    def test_equal_items_are_distinct(self, index):
        # Identity-based storage: two equal dicts are two stored tuples.
        a, b = {"A": 1, "B": 1, "C": 1}, {"A": 1, "B": 1, "C": 1}
        index.insert(a)
        index.insert(b)
        assert index.size == 2
        index.remove(a)
        assert index.size == 1

    def test_items_iterates_all(self, index):
        items = make_items(20)
        for item in items:
            index.insert(item)
        assert sorted(map(id, index.items())) == sorted(map(id, items))

    def test_bucket_cleanup_on_empty(self, jas3):
        idx = make_bit_index(jas3, {"A": 8, "B": 8, "C": 8})
        item = {"A": 1, "B": 2, "C": 3}
        idx.insert(item)
        assert idx.bucket_count == 1
        idx.remove(item)
        assert idx.bucket_count == 0
        assert idx.memory_bytes == 0

    def test_memory_grows_and_shrinks(self, index):
        items = make_items(50)
        for item in items:
            index.insert(item)
        peak = index.memory_bytes
        assert peak > 0
        for item in items:
            index.remove(item)
        assert index.memory_bytes == 0


class TestSearch:
    def test_exact_pattern_search(self, index, ap3):
        items = make_items(100)
        for item in items:
            index.insert(item)
        out = index.search(ap3("A", "B", "C"), {"A": 3, "B": 1, "C": 2})
        expected = [i for i in items if i["A"] == 3 and i["B"] == 1 and i["C"] == 2]
        assert len(out.matches) == len(expected)

    def test_partial_pattern_search(self, index, ap3):
        items = make_items(100)
        for item in items:
            index.insert(item)
        out = index.search(ap3("B"), {"B": 2})
        assert len(out.matches) == sum(1 for i in items if i["B"] == 2)

    def test_full_scan_pattern_returns_all(self, index, ap3):
        for item in make_items(30):
            index.insert(item)
        out = index.search(ap3(), {})
        assert len(out.matches) == 30
        assert out.used_full_scan

    def test_missing_probe_value_raises(self, index, ap3):
        with pytest.raises(KeyError):
            index.search(ap3("A"), {"B": 1})

    def test_foreign_pattern_raises(self, index):
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["X"]), ["X"])
        with pytest.raises(ValueError):
            index.search(foreign, {"X": 1})

    def test_indexed_probe_examines_fewer(self, jas3, ap3):
        idx = make_bit_index(jas3, {"A": 6, "B": 0, "C": 0})
        items = make_items(200, mod=(64, 3, 5))
        for item in items:
            idx.insert(item)
        indexed = idx.search(ap3("A"), {"A": 10})
        unindexed = idx.search(ap3("B"), {"B": 1})
        assert indexed.tuples_examined < unindexed.tuples_examined
        assert unindexed.tuples_examined == idx.size  # no bits on B: full scan

    def test_empty_index_search(self, index, ap3):
        out = index.search(ap3("A"), {"A": 1})
        assert out.matches == []
        assert out.tuples_examined == 0


class TestCostAccounting:
    def test_insert_charges_hashes(self, jas3):
        acct = Accountant()
        idx = BitAddressIndex(IndexConfiguration(jas3, [4, 4, 0]), acct)
        idx.insert({"A": 1, "B": 2, "C": 3})
        assert acct.hashes == 2  # only the two bitted attributes
        assert acct.inserts == 1

    def test_search_charges_request_hashes(self, index, ap3):
        acct = index.accountant
        before = acct.hashes
        index.search(ap3("A", "C"), {"A": 1, "C": 2})
        assert acct.hashes - before == 2

    def test_wildcard_bucket_visit_charge(self, jas3, ap3):
        idx = make_bit_index(jas3, {"A": 2, "B": 3, "C": 0})
        items = make_items(200, mod=(4, 8, 2))
        for item in items:
            idx.insert(item)
        live = idx.bucket_count
        before = idx.accountant.buckets_visited
        idx.search(ap3("A"), {"A": 1})  # wildcard over B's 3 bits
        visited = idx.accountant.buckets_visited - before
        assert visited == min(2**3, live)

    def test_degenerate_wildcard_capped_at_live_buckets(self, jas3, ap3):
        idx = make_bit_index(jas3, {"A": 2, "B": 30, "C": 30})
        for item in make_items(50):
            idx.insert(item)
        out = idx.search(ap3("A"), {"A": 1})
        assert out.buckets_visited <= idx.bucket_count


class TestMigration:
    def test_preserves_content(self, jas3, ap3):
        idx = make_bit_index(jas3, {"A": 5, "B": 2, "C": 3})
        items = make_items(150)
        for item in items:
            idx.insert(item)
        report = idx.reconfigure(IndexConfiguration(jas3, {"B": 4, "C": 4}))
        assert report.tuples_moved == 150
        out = idx.search(ap3("A", "C"), {"A": 3, "C": 2})
        expected = [i for i in items if i["A"] == 3 and i["C"] == 2]
        assert len(out.matches) == len(expected)

    def test_migration_charges_moves(self, jas3):
        idx = make_bit_index(jas3, {"A": 4, "B": 0, "C": 0})
        for item in make_items(30):
            idx.insert(item)
        acct_before = idx.accountant.snapshot()
        idx.reconfigure(IndexConfiguration(jas3, {"C": 4}))
        assert idx.accountant.moves - acct_before.moves == 30
        assert idx.accountant.inserts == acct_before.inserts  # not fresh inserts

    def test_migration_to_same_config(self, jas3):
        cfg = IndexConfiguration(jas3, [2, 2, 2])
        idx = BitAddressIndex(cfg)
        for item in make_items(10):
            idx.insert(item)
        report = idx.reconfigure(cfg)
        assert report.tuples_moved == 10  # still a relocation pass
        assert idx.size == 10

    def test_rejects_foreign_jas(self, jas3):
        idx = make_bit_index(jas3, [1, 1, 1])
        with pytest.raises(ValueError):
            idx.reconfigure(IndexConfiguration(JoinAttributeSet(["X"]), [4]))

    def test_remove_after_migration(self, jas3):
        idx = make_bit_index(jas3, {"A": 4})
        items = make_items(20)
        for item in items:
            idx.insert(item)
        idx.reconfigure(IndexConfiguration(jas3, {"C": 4}))
        idx.remove(items[0])
        assert idx.size == 19


@pytest.mark.parametrize("bits", [{"A": 4, "B": 2}, {"A": 0, "B": 0}], ids=["A4B2", "A0B0"])
@pytest.mark.parametrize("probe", [1, 1.0, True], ids=repr)
def test_equal_values_of_three_types_are_one_key(bits, probe):
    # 1 == 1.0 == True: every IC answers <A,*> with all three tuples, as
    # the scan does — so a tuning round's reconfigure cannot change a join.
    jas = JoinAttributeSet(["A", "B"])
    idx = make_bit_index(jas, bits)
    oracle = ScanIndex(jas)
    for b, a in enumerate((1, 1.0, True)):
        item = {"A": a, "B": b}
        idx.insert(item)
        oracle.insert(item)
    ap = AccessPattern.from_attributes(jas, ["A"])
    got = idx.search(ap, {"A": probe}).matches
    want = oracle.search(ap, {"A": probe}).matches
    assert len(want) == 3
    assert Counter(map(id, got)) == Counter(map(id, want))


# --------------------------------------------------------------------- #
# fragment maps — a bare key while one bucket carries the fragment


def fragment_sets(idx):
    """Every fragment-map entry that is a set."""
    return [e for fmap in idx._frag_maps.values() for e in fmap.values() if isinstance(e, set)]


def test_a_fragment_one_bucket_carries_maps_to_the_bare_key(jas3, ap3):
    # The uninformed 64-bit IC over distinct values: every tuple has
    # fragments of its own, so no fragment map holds a set.
    idx = BitAddressIndex(uniform_configuration(jas3, 64))
    items = [{"A": i, "B": i, "C": i} for i in range(2000)]
    for item in items:
        idx.insert(item)
    assert fragment_sets(idx) == []
    key = idx._entries[id(items[0])][1]
    assert idx._frag_maps[0][key[0]] == key
    # A second bucket under A's fragment of 0: that entry becomes the two
    # keys, the others stay bare.
    twin = {"A": 0, "B": 5000, "C": 5001}
    idx.insert(twin)
    pair = idx._frag_maps[0][key[0]]
    assert fragment_sets(idx) == [pair]
    assert pair == {key, idx._entries[id(twin)][1]}
    assert [id(m) for m in idx.search(ap3("A"), {"A": 0}).matches] == [
        id(m) for k in pair for m in idx.bucket_items(k)
    ]
    assert_slots_are_consistent(idx, [*items, twin])


def test_fragment_maps_iterate_as_one_set_per_fragment(jas3):
    # The shadow keeps the rule the golden corpus was recorded under: one
    # set per fragment, created at its first bucket, ``discard`` on a
    # bucket's removal, deleted when empty.  Each entry iterates as its
    # shadow (a bare key as ``[key]``), and a set that once held two keys
    # stays a set, however far it shrinks.
    rng = random.Random(53)
    idx = make_bit_index(jas3, [2, 1, 3])
    shadow: dict[int, dict[int, set]] = {}
    grown: set[tuple[int, int]] = set()
    shrunk = 0

    def rebuild():
        shadow.clear()
        grown.clear()
        shadow.update({pos: {} for pos in idx._frag_maps})
        for key in idx._buckets:
            add(key)

    def add(key):
        for pos, sets in shadow.items():
            keys = sets.setdefault(key[pos], set())
            keys.add(key)
            if len(keys) > 1:
                grown.add((pos, key[pos]))

    def discard(key):
        for pos, sets in shadow.items():
            sets[key[pos]].discard(key)
            if not sets[key[pos]]:
                del sets[key[pos]]
                grown.discard((pos, key[pos]))

    def check():
        nonlocal shrunk
        assert {pos: set(fmap) for pos, fmap in idx._frag_maps.items()} == {
            pos: set(sets) for pos, sets in shadow.items()
        }
        for pos, fmap in idx._frag_maps.items():
            for frag, entry in fmap.items():
                want = list(shadow[pos][frag])
                assert (list(entry) if isinstance(entry, set) else [entry]) == want
                assert isinstance(entry, set) == ((pos, frag) in grown)
                shrunk += isinstance(entry, set) and len(entry) == 1

    rebuild()
    live = []
    for step in range(900):
        if step in (300, 600):
            idx.reconfigure(IndexConfiguration(jas3, [3, 2, 1] if step == 300 else [1, 0, 4]))
            rebuild()
        elif live and rng.random() < 0.45:
            item = live.pop(rng.randrange(len(live)))
            before = set(idx._buckets)
            idx.remove(item)
            for key in before - set(idx._buckets):
                discard(key)
        else:
            item = {a: rng.randrange(12) for a in "ABC"}
            live.append(item)
            before = set(idx._buckets)
            idx.insert(item)
            for key in set(idx._buckets) - before:
                add(key)
        check()
    assert shrunk, "no set shrank to one key; vacuous"
    assert_slots_are_consistent(idx, live)


# --------------------------------------------------------------------- #
# match order — the reference walk's, corner by corner


def assert_every_pattern_in_reference_order(index, probes):
    for mask in range(index.jas.full_mask + 1):
        ap = AccessPattern.from_mask(index.jas, mask)
        for values in probes:
            got = index.search(ap, values).matches
            want = reference_matches(index, ap, values)
            assert [id(m) for m in got] == [id(m) for m in want], (ap, values)


class EqualsAll(int):
    """An ``int`` subclass whose ``==`` holds against every stored int (a
    subclass's reflected ``__eq__`` is asked first), while its stable hash
    is its int's: a value no hash can stand for, so no index takes it."""

    def __eq__(self, other):
        return True

    __hash__ = int.__hash__


class TestMatchOrderExamples:
    """The corners of the probe, one at a time, against the reference."""

    @staticmethod
    def populated(jas, bits, n=60):
        idx = BitAddressIndex(IndexConfiguration(jas, list(bits)))
        items = [{a: (i * (7 + p)) % 5 for p, a in enumerate(jas.names)} for i in range(n)]
        for item in items:
            idx.insert(item)
        return idx, items

    def test_point_probe_with_a_zero_bit_position(self, jas3, ap3):
        # B carries no bits: <A,*,C> and <A,B,C> leave no wildcard bit, and
        # the bucket key has a constant 0 in B's place.
        idx, items = self.populated(jas3, (2, 0, 2))
        for ap in (ap3("A", "C"), ap3("A", "B", "C")):
            assert compile_probe_plan(idx.config, ap).wildcard_bits == 0
        assert all(key[1] == 0 for key in idx._buckets)
        assert idx.search(ap3("A", "C"), items[0]).matches  # the lookup does find buckets
        assert_every_pattern_in_reference_order(idx, items[:10])

    def test_point_probe_of_an_absent_bucket(self, jas3, ap3):
        idx = make_bit_index(jas3, [2, 2, 2])
        stored = {"A": 1, "B": 1, "C": 1}
        idx.insert(stored)
        # No stored tuple carries these fragments, alone or together.
        absent = {"A": 2, "B": 2, "C": 2}
        assert bucket_key(idx.config, absent) not in idx._buckets
        out = idx.search(ap3("A", "B", "C"), absent)
        assert out.matches == [] and out.tuples_examined == 0 and out.buckets_visited == 1
        # Each fragment is live, their combination is not.
        idx.insert({"A": 2, "B": 1, "C": 1})
        idx.insert({"A": 1, "B": 2, "C": 2})
        mixed = {"A": 2, "B": 2, "C": 1}
        assert idx.search(ap3("A", "B", "C"), mixed).matches == []
        assert_every_pattern_in_reference_order(idx, [stored, absent, mixed])

    def test_tie_between_equally_small_fragment_sets(self, jas3, ap3):
        # <A,B,*> over twelve tuples that agree on A and B: A's and B's key
        # sets hold the same keys, a tie that goes to A (fixed-position
        # order).  A's set has churned — a set keeps its grown table — so
        # the two iterate differently and the choice shows in the match list.
        idx = make_bit_index(jas3, [1, 1, 8])
        kept = [{"A": 1, "B": 1, "C": c} for c in range(12)]
        churn = [{"A": 1, "B": 2, "C": c} for c in range(300)]
        for item in kept + churn:
            idx.insert(item)
        for item in churn:
            idx.remove(item)
        by_a = idx._frag_maps[0][fragment(1, 1)]
        by_b = idx._frag_maps[1][fragment(1, 1)]
        assert by_a == by_b and list(by_a) != list(by_b), "the tie does not show; vacuous"
        got = idx.search(ap3("A", "B"), {"A": 1, "B": 1}).matches
        assert [id(m) for m in got] == [
            id(item) for key in by_a for item in idx.bucket_items(key)
        ]
        assert_every_pattern_in_reference_order(idx, kept[:2])


class CountingItem(Mapping):
    """A stored tuple that counts the reads of its attributes."""

    def __init__(self, values):
        self._values = dict(values)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


@pytest.mark.parametrize("cls", [BitAddressIndex, WalkOnly], ids=["counts", "walk_only"])
def test_probes_and_migrations_read_nothing_from_stored_items(jas3, cls):
    # Buckets keep the value rows read at insert: after it, neither a
    # reconfigure nor a probe of any pattern reads a stored tuple again,
    # whether the counts answer or the walk does.
    idx = cls(IndexConfiguration(jas3, [2, 1, 0]))
    items = [CountingItem({"A": i % 5, "B": i % 3, "C": i % 7}) for i in range(120)]
    for item in items:
        idx.insert(item)
    for item in items:
        item.reads = 0
    idx.reconfigure(IndexConfiguration(jas3, [1, 2, 2]))
    probes = [dict(item._values) for item in items[:6]] + [{"A": 99, "B": 0, "C": 0}]
    found = 0
    for mask in range(jas3.full_mask + 1):
        ap = AccessPattern.from_mask(jas3, mask)
        rows = [tuple(values[a] for a in ap.attributes) for values in probes]
        found += sum(len(out) for out in idx.search_batch(ap, rows))
        found += sum(len(idx.search(ap, values)) for values in probes)
    assert (count_asks(idx) > 0) == (cls is BitAddressIndex)
    assert found > 2 * len(probes) * len(items)  # the full-scan pattern alone
    assert [item.reads for item in items] == [0] * len(items)


def test_generated_walks_carry_no_user_text():
    # Attribute names and values that would end a string literal or run
    # code if a walk's source quoted them: the source holds integers only,
    # and every probe still equals the reference.
    names = ["it's", 'say "hi"', "two\nlines", "__import__('os').getcwd()"]
    jas = JoinAttributeSet(names)
    idx = BitAddressIndex(IndexConfiguration(jas, [2, 0, 1, 3]))
    values = ["'", '"', "\n", "__import__('os')", "\\", "'''", '"""']
    items = [
        {a: values[(i * (p + 2) + p) % len(values)] for p, a in enumerate(names)}
        for i in range(90)
    ]
    for item in items:
        idx.insert(item)
    probes = items[:4] + [{a: "'); __import__('os'); ('" for a in names}]
    assert_every_pattern_in_reference_order(idx, probes)
    assert idx.count_rows[0] > 0
    assert bit_index._WALK_FACTORIES
    for shape in bit_index._WALK_FACTORIES:
        assert re.fullmatch(r"[^'\"]*", bit_index._walk_source(*shape)), shape


# --------------------------------------------------------------------- #
# candidate rows per fragment tuple — a prober dies with the state it read


def probe_fields(outcome):
    return (
        [id(m) for m in outcome.matches],
        outcome.buckets_visited,
        outcome.tuples_examined,
        outcome.used_full_scan,
    )


def test_an_insert_between_two_probes_of_one_fragment_tuple_shows(jas3, ap3):
    idx = make_bit_index(jas3, [1, 1, 1])
    items = [{"A": i % 4, "B": i % 3, "C": i % 5} for i in range(40)]
    for item in items:
        idx.insert(item)
    before = idx.search_batch(ap3("A"), [(2,)])[0]
    new = {"A": 2, "B": 0, "C": 0}
    idx.insert(new)
    after = idx.search_batch(ap3("A"), [(2,)])[0]
    assert any(m is new for m in after.matches)
    assert after.tuples_examined == before.tuples_examined + 1
    idx.remove(new)
    assert probe_fields(idx.search_batch(ap3("A"), [(2,)])[0])[1:] == probe_fields(before)[1:]


def test_bit_address_probers_never_outlive_storage():
    assert BitAddressIndex.probers_outlive_storage is False, (
        "a bit-address prober keeps candidate rows per fragment tuple (and "
        "captures the size and live-bucket count): insert and remove must drop it"
    )


# --------------------------------------------------------------------- #
# value and fragment counts — what they answer is what the walk answers


def assert_counts_equal_the_walk(idx, twin, probes):
    """Every pattern, ``probes`` as one column: same matches in the same
    order, same charged counts, and in the end the same accountant."""
    jas = idx.jas
    for mask in range(jas.full_mask + 1):
        ap = AccessPattern.from_mask(jas, mask)
        rows = [tuple(values[a] for a in ap.attributes) for values in probes]
        for row, got, want in zip(rows, idx.search_batch(ap, rows), twin.search_batch(ap, rows)):
            assert [id(m) for m in got.matches] == [id(m) for m in want.matches], (ap, row)
            assert (got.buckets_visited, got.tuples_examined, got.used_full_scan) == (
                want.buckets_visited,
                want.tuples_examined,
                want.used_full_scan,
            ), (ap, row)
            assert type(got.tuples_examined) is int
    assert idx.accountant == twin.accountant


class TestCountProbe:
    """The corners of the count probe, one at a time, against the walk."""

    @staticmethod
    def twins(jas, bits, items):
        idx = BitAddressIndex(IndexConfiguration(jas, list(bits)))
        twin = WalkOnly(IndexConfiguration(jas, list(bits)))
        for item in items:
            idx.insert(item)
            twin.insert(item)
        return idx, twin

    def test_a_wide_probe_that_matches_nothing_never_walks(self, jas3, ap3):
        items = [{"A": i, "B": i % 7, "C": i % 5} for i in range(200)]
        idx, twin = self.twins(jas3, (1, 2, 2), items)
        # 200 >> 1 = 100 candidates: the walk would examine them all.
        out = idx.search(ap3("A"), {"A": 1000})
        want = twin.search(ap3("A"), {"A": 1000})
        assert out.matches == [] and out.tuples_examined == want.tuples_examined > 64
        assert idx.count_rows == [1, 0]
        assert idx.accountant == twin.accountant
        # A possible match goes on to the walk, which returns it.
        assert idx.search(ap3("A"), {"A": 7}).matches == [items[7]]
        assert idx.count_rows == [1, 1]
        # A point probe and a probe with two fixed positions never ask.
        idx.search(ap3("A", "B", "C"), {"A": 1000, "B": 0, "C": 0})
        idx.search(ap3("A", "B"), {"A": 1000, "B": 0})
        assert idx.count_rows == [1, 1]
        assert "count_answered=1, count_walked=1" in idx.describe()

    def test_equal_values_of_another_type_share_a_hash_and_match(self, jas3, ap3):
        # 1 == 1.0 == True share one count: a column of floats vouches for
        # an int or a bool probe — an equal one walks to its matches, an
        # unequal one is answered — and so does a column that mixes the three.
        items = [{"A": float(i % 4), "B": i, "C": i} for i in range(40)]
        idx, twin = self.twins(jas3, (1, 2, 2), items)
        probes = [{"A": v, "B": 0, "C": 0} for v in (1, 1.0, True, 9, 9.0, False, 0.5)]
        assert len(idx.search(ap3("A"), {"A": True}).matches) == 10
        assert idx.count_rows == [0, 1]
        assert idx.search(ap3("A"), {"A": 9}).matches == []
        assert idx.count_rows == [1, 1]
        twin.search(ap3("A"), {"A": True})
        twin.search(ap3("A"), {"A": 9})
        assert_counts_equal_the_walk(idx, twin, probes)
        # Without bits there is no fragment, only the value count.
        for index in (idx, twin):
            index.reconfigure(IndexConfiguration(jas3, [0, 2, 2]))
        assert_counts_equal_the_walk(idx, twin, probes)
        for item in ({"A": 9, "B": 0, "C": 0}, {"A": False, "B": 0, "C": 0}):
            idx.insert(item)
            twin.insert(item)
            items.append(item)
        assert_slots_are_consistent(idx, items)
        answered = idx.count_rows[0]
        assert_counts_equal_the_walk(idx, twin, probes)
        assert idx.count_rows[0] > answered

    def test_a_value_of_another_type_is_refused(self, jas3, ap3):
        # An int subclass hashes as its int but may define its own ``==``,
        # which no count could vouch for: it is refused, stored or probed,
        # and the counts keep answering for every other value.
        items = [{"A": i % 4, "B": i % 3, "C": i} for i in range(20)]
        idx, twin = self.twins(jas3, (2, 2, 0), items)
        before = idx.accountant.snapshot()
        with pytest.raises(UnkeyableValueError, match="'A' holds a value of type EqualsAll"):
            idx.insert({"A": EqualsAll(3), "B": 1, "C": 99})
        assert_slots_are_consistent(idx, items)
        with pytest.raises(UnkeyableValueError):
            idx.search(ap3("A"), {"A": EqualsAll(3)})
        assert idx.size == 20 and idx.accountant == before
        assert_counts_equal_the_walk(idx, twin, items[:3] + [{"A": 7, "B": 0, "C": 5}])
        assert idx.count_rows[0] > 0

    def test_a_value_outside_the_exact_types_never_reaches_the_memo(self, jas3, ap3):
        # Decimal(1) == 1.0, and the memo keys by value: were Decimal let
        # in, it would find 1.0's entry once that is memoized.  It is
        # refused the same way before and after.
        def refusals():
            idx = make_bit_index(jas3, [2, 2, 2])
            stored = {"A": 1, "B": 1, "C": 1}
            idx.insert(stored)
            with pytest.raises(UnkeyableValueError) as inserted:
                idx.insert({"A": Decimal(1), "B": 0, "C": 0})
            assert_slots_are_consistent(idx, [stored])
            with pytest.raises(UnkeyableValueError) as probed:
                idx.search(ap3("A"), {"A": Decimal(1)})
            return str(inserted.value), str(probed.value), idx.size

        memo = bitops._HASH_MEMO
        memo.clear()
        before = refusals()
        assert not any(type(key) is Decimal for key in memo)
        for value in (1, 1.0):
            make_bit_index(jas3, [2, 2, 2]).insert({"A": value, "B": 0, "C": 0})
        assert 1 in memo and 0 in memo
        assert refusals() == before
        assert not any(type(key) is Decimal for key in memo)
        assert before[-1] == 1

    def test_a_fragment_wider_than_the_hash(self, jas3, ap3):
        # 70 bits for one attribute: the fragment is the whole 64-bit hash.
        items = [{"A": i, "B": i % 3, "C": i % 5} for i in range(40)]
        idx, twin = self.twins(jas3, (70, 1, 0), items)
        assert_counts_equal_the_walk(idx, twin, items[:3] + [{"A": 99, "B": 0, "C": 0}])
        for index in (idx, twin):
            index.reconfigure(IndexConfiguration(jas3, [0, 66, 2]))
        assert_slots_are_consistent(idx, items)
        assert_counts_equal_the_walk(idx, twin, items[:3] + [{"A": 99, "B": 0, "C": 0}])
        assert idx.count_rows[0] > 0

    @pytest.mark.parametrize("odd", [{"C": [1, 2]}, {"C": (1, 2)}, {}], ids=["list", "tuple", "absent"])
    def test_a_value_the_hash_rejects_in_a_zero_bit_attribute(self, jas3, ap3, odd):
        # C carries no bits, so its value is never a fragment; it is refused
        # all the same, as where the attribute carries bits: a value the
        # stable hash rejects by name, a missing one with its KeyError.
        error = UnkeyableValueError if odd else KeyError
        for bits in ((2, 2, 0), (2, 2, 1)):
            items = [{"A": i % 4, "B": i % 3, "C": i} for i in range(20)]
            idx, twin = self.twins(jas3, bits, items)
            before = idx.accountant.snapshot()
            item = {"A": 1, "B": 1, **odd}
            with pytest.raises(error) as refused:
                idx.insert(item)
            if not odd:
                assert refused.value.args == ("C",)
            assert_slots_are_consistent(idx, items)
            assert idx.size == 20 and idx.accountant == before
            assert_counts_equal_the_walk(idx, twin, items[:3] + [{"A": 1, "B": 1, "C": 5}])
            with pytest.raises(KeyError):
                idx.remove(item)

    def test_columns_grow_past_their_initial_capacity(self, jas3, ap3):
        # 700 tuples, then holes everywhere (466 live), then 300 more: the
        # holes first, then past the old top.  The counts equal a recount
        # at each step.
        items = [{"A": i, "B": i % 11, "C": i % 13} for i in range(700)]
        idx, twin = self.twins(jas3, (2, 2, 2), items)
        assert_slots_are_consistent(idx, items)
        for item in items[::3]:
            idx.remove(item)
            twin.remove(item)
        live = [item for i, item in enumerate(items) if i % 3]
        assert_slots_are_consistent(idx, live)
        assert len(idx._free) == 234
        refill = [{"A": 9000 + i, "B": i % 11, "C": i % 13} for i in range(300)]
        for item in refill:
            idx.insert(item)
            twin.insert(item)
        live += refill
        assert_slots_are_consistent(idx, live)
        assert idx._free == [] and len(live) == 766
        assert_counts_equal_the_walk(idx, twin, live[:4] + [{"A": 5000, "B": 1, "C": 1}])
        assert idx.count_rows[0] > 0 and idx.count_rows[1] > 0


class TestMalformedInput:
    def test_insert_missing_attribute_raises(self, jas3):
        idx = make_bit_index(jas3, [2, 2, 2])
        with pytest.raises(KeyError):
            idx.insert({"A": 1, "B": 2})  # C missing

    def test_partial_insert_leaves_no_trace(self, jas3, ap3):
        """A failed insert must not corrupt the index."""
        idx = make_bit_index(jas3, [2, 2, 2])
        try:
            idx.insert({"A": 1})
        except KeyError:
            pass
        assert idx.size == 0
        good = {"A": 1, "B": 2, "C": 3}
        idx.insert(good)
        out = idx.search(ap3("A"), {"A": 1})
        assert len(out.matches) == 1

    def test_unhashable_value_raises(self, jas3):
        idx = make_bit_index(jas3, [2, 2, 2])
        with pytest.raises(UnkeyableValueError):
            idx.insert({"A": [1, 2], "B": 0, "C": 0})
