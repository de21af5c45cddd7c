"""A cached prober never outlives the structure it was built from.

``StateIndex`` keeps one prober per pattern mask until ``_changed()``.
This holds every concrete backend — found by walking the subclasses of
``StateIndex``, so a new backend is covered without editing this file —
crossed with each public mutator it has, to two things: after the
mutation no prober is cached, and every pattern reads exactly what a twin
reads that replayed the same operations without ever probing before.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.index_config import IndexConfiguration
from repro.engine.tuples import StreamTuple
from repro.indexes.base import StateIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.storage import StateStore
from tests.conftest import build_index

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

CASES = [
    pytest.param(cls, name, id=f"{cls.__name__}-{name}")
    for cls in backends()
    for name, (applies, _mutate) in MUTATIONS.items()
    if applies(cls)
]


def build(cls):
    """A store over ``cls`` holding all of ``STORED`` but the last tuple."""
    store = StateStore("S", JAS, build_index(cls, JAS), window=1000)
    items = [StreamTuple("S", t, dict(zip(JAS.names, row))) for t, row in enumerate(STORED)]
    for t, item in enumerate(items[:-1]):
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


@pytest.mark.parametrize("cls,mutation", CASES)
def test_a_mutation_drops_every_cached_prober(cls, mutation):
    mutate = MUTATIONS[mutation][1]
    store, items = build(cls)
    read_every_pattern(store)
    assert len(store.index._probers) == JAS.full_mask + 1  # the cache is full
    mutate(store, items)
    assert store.index._probers == {}

    twin, twin_items = build(cls)
    mutate(twin, twin_items)
    assert read_every_pattern(store) == read_every_pattern(twin)
