"""A cached prober answers as a fresh one would: a rule, not a convention.

``StateIndex`` keeps one prober per pattern mask.  Its ``_drop_probers``
drops them all: on every structure change other than ``insert`` /
``remove``, and on every ``insert`` / ``remove`` of a class that does not
set ``probers_outlive_storage``.  The
rule is checked on every concrete backend — found by walking the
subclasses of ``StateIndex``, so a new backend is covered without editing
this file:

- after any interleaving of probes, inserts and removes, every pattern
  reads exactly what a twin reads that replayed the same inserts and
  removes without ever probing;
- crossed with each public mutator, every pattern reads what the
  never-probed twin reads.  An insert or remove on a class that sets
  ``probers_outlive_storage`` answers with the very probers cached before
  it; every other mutation leaves no prober cached;
- with the cyclic GC off, a probed index of every class is freed when its
  last reference goes: no cached prober refers to its index.
"""

from __future__ import annotations

import gc
import inspect
import weakref

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.bit_index import BitAddressIndex
from repro.core.index_config import IndexConfiguration
from repro.engine.tuples import StreamTuple
from repro.indexes.base import StateIndex
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.storage import StateStore
from tests.conftest import INDEX_CLASSES, build_index

JAS = JoinAttributeSet(["A", "B", "C"])
STORED = [(i % 4, i % 3, i % 5) for i in range(13)]
PROBES = [(0, 0, 0), (1, 1, 1), (3, 2, 4), (2, 0, 2), (9, 9, 9)]
NEW_CONFIG = IndexConfiguration(JAS, [1, 3, 0])


def backends() -> list[type]:
    """Every concrete ``StateIndex`` subclass the package defines."""
    found, todo = set(), [StateIndex]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def reconfigures(cls) -> bool:
    """Whether the class's key map can change (the static bitmap's
    ``reconfigure`` raises)."""
    return hasattr(cls, "reconfigure") and not issubclass(cls, StaticBitmapIndex)


def migrate(store, items):
    """A migration as a run makes it: one stop-the-world reconfigure, then
    the window moves on under the new key map."""
    store.index.reconfigure(NEW_CONFIG)
    assert store.expire(1001) == 2  # stored at ticks 0 and 1, window 1000


#: name -> (applies to the class, the mutation).
MUTATIONS = {
    "insert": (lambda cls: True, lambda store, items: store.index.insert(items[-1])),
    "remove": (lambda cls: True, lambda store, items: store.index.remove(items[0])),
    "reconfigure": (reconfigures, lambda store, items: store.index.reconfigure(NEW_CONFIG)),
    "set_patterns": (
        lambda cls: hasattr(cls, "set_patterns"),
        lambda store, items: store.index.set_patterns(
            [AccessPattern.from_attributes(JAS, names) for names in (["B"], ["A", "C"])]
        ),
    ),
    "degrade_to_scan": (
        lambda cls: not cls.unindexed,
        lambda store, items: store.degrade_to_scan(),
    ),
    "migration": (reconfigures, migrate),
}

#: (backend, mutator) pairs that update in place what probers capture.
KEEPS_PROBERS = {
    (cls, mutation)
    for cls in backends()
    if cls.probers_outlive_storage
    for mutation in ("insert", "remove")
}

CASES = [
    pytest.param(cls, name, id=f"{cls.__name__}-{name}")
    for cls in backends()
    for name, (applies, _mutate) in MUTATIONS.items()
    if applies(cls)
]


def build(cls, stored=len(STORED) - 1):
    """A store over ``cls`` holding the first ``stored`` tuples of
    ``STORED`` (all but the last by default)."""
    store = StateStore("S", JAS, build_index(cls, JAS), window=1000)
    items = [StreamTuple("S", t, dict(zip(JAS.names, row))) for t, row in enumerate(STORED)]
    for t, item in enumerate(items[:stored]):
        store.insert(item, t)
    return store, items


def read_every_pattern(store) -> list:
    """Every pattern probed with ``PROBES`` as one column: per row, the
    matches (by arrival, in order) and the charged work."""
    out = []
    for mask in range(JAS.full_mask + 1):
        ap = AccessPattern.from_mask(JAS, mask)
        rows = [tuple(row[JAS.names.index(a)] for a in ap.attributes) for row in PROBES]
        out.append(
            [
                (
                    [m.arrived_at for m in o.matches],
                    o.buckets_visited,
                    o.tuples_examined,
                    o.used_full_scan,
                )
                for o in store.probe_batch(ap, rows)
            ]
        )
    return out


def test_every_backend_is_covered():
    names = {cls.__name__ for cls in backends()}
    assert names >= {
        "BitAddressIndex",
        "StaticBitmapIndex",
        "MultiHashIndex",
        "InvertedListIndex",
        "ScanIndex",
    }


def test_only_bit_address_probers_die_with_an_arrival():
    """A bit-address prober captures the state's size, its live-bucket
    count and its masked column slices; the other backends' probers read
    what insert and remove update in place."""
    keeping = {cls for cls in backends() if cls.probers_outlive_storage}
    assert keeping >= {ScanIndex, InvertedListIndex, MultiHashIndex}
    assert not keeping & {BitAddressIndex, StaticBitmapIndex}


def mutated_after_probing(cls, mutation):
    """A store whose prober cache was full when ``mutation`` ran, and a
    twin that ran it without ever probing."""
    mutate = MUTATIONS[mutation][1]
    store, items = build(cls)
    read_every_pattern(store)
    assert len(store.index._probers) == JAS.full_mask + 1  # the cache is full
    mutate(store, items)
    twin, twin_items = build(cls)
    mutate(twin, twin_items)
    return store, twin


@pytest.mark.parametrize("cls,mutation", CASES)
def test_a_mutation_drops_every_cached_prober(cls, mutation):
    """Every prober the mutation invalidates is dropped — all of them,
    except on the in-place pairs of ``KEEPS_PROBERS``, which invalidate
    none and must keep every prober answering."""
    store, twin = mutated_after_probing(cls, mutation)
    if (cls, mutation) in KEEPS_PROBERS:
        cached = dict(store.index._probers)
        assert len(cached) == JAS.full_mask + 1
        assert read_every_pattern(store) == read_every_pattern(twin)
        # The same prober objects answered.
        assert all(store.index._probers[mask] is p for mask, p in cached.items())
    else:
        assert store.index._probers == {}
        assert read_every_pattern(store) == read_every_pattern(twin)


#: Inserts (+) and removes (-) by item number, interleaved with probes.
SEQUENCE = [("+", 12), ("-", 0), ("+", 11), ("-", 3), ("-", 12), ("+", 10), ("-", 1)]


@pytest.mark.parametrize("cls", backends(), ids=lambda cls: cls.__name__)
def test_a_cached_prober_answers_as_a_never_probed_twin(cls):
    store, items = build(cls, stored=10)
    read_every_pattern(store)
    for step, (op, n) in enumerate(SEQUENCE, 1):
        (store.index.insert if op == "+" else store.index.remove)(items[n])
        twin, twin_items = build(cls, stored=10)
        for twin_op, twin_n in SEQUENCE[:step]:
            index = twin.index
            (index.insert if twin_op == "+" else index.remove)(twin_items[twin_n])
        assert read_every_pattern(store) == read_every_pattern(twin), (op, n)


class TestMultiHashProberLifetime:
    """Regression case for the multi-hash rule: arrivals keep probers."""

    B = AccessPattern.from_attributes(JAS, ["B"])  # no module: exact table, full-scan charge
    A = AccessPattern.from_attributes(JAS, ["A"])  # its own module

    def test_a_prober_built_before_an_insert_returns_the_new_tuple(self):
        store, items = build(MultiHashIndex)
        new = items[-1]
        rows = {self.A: (new["A"],), self.B: (new["B"],)}
        before = {ap: store.probe_batch(ap, [row])[0].matches for ap, row in rows.items()}
        probers = dict(store.index._probers)
        store.index.insert(new)
        for ap, row in rows.items():
            outcome = store.probe_batch(ap, [row])[0]
            assert outcome.matches == before[ap] + [new]
        assert store.index._probers == probers
        # The full scan is charged the state's size at probe time.
        assert store.probe_batch(self.B, [(99,)])[0].tuples_examined == store.size == len(items)


@pytest.mark.parametrize("mask", range(JAS.full_mask + 1))
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
def test_a_probed_index_is_freed_without_the_cyclic_gc(cls, mask):
    # A cached prober that refers to its index keeps the two alive in a
    # cycle: a dropped index, and every tuple it stores, would wait for the
    # cyclic GC.  A prober holds structures and counters, never the index.
    ap = AccessPattern.from_mask(JAS, mask)
    enabled = gc.isenabled()
    gc.disable()
    try:
        index = build_index(cls, JAS)
        for i in range(400):
            index.insert({"A": i % 7, "B": i % 11, "C": i})
        index.search_batch(ap, [(99,) * ap.n_attributes])
        freed = weakref.ref(index)
        del index
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
