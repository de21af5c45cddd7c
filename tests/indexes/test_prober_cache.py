"""A prober never holds its index, and every backend is found.

``StateIndex`` keeps one prober per pattern mask.  Its ``_drop_probers``
drops them all: on every structure change other than ``insert`` /
``remove``, and on every ``insert`` / ``remove`` of a class that does not
set ``probers_outlive_storage``.  That a cached prober answers as a fresh
one, after any history of mutations, is the rule of
``tests/storage/test_store_machine.py``.  Here, on every concrete backend
(found by walking the subclasses of ``StateIndex``, so a new backend is
covered without editing this file):

- every backend is one of ``tests.conftest.INDEX_CLASSES``, which the
  store machine runs;
- the backends whose probers outlive ``insert`` / ``remove`` are the ones
  that read the state live;
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
from repro.indexes.base import StateIndex
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from tests.conftest import INDEX_CLASSES, build_index

JAS = JoinAttributeSet(["A", "B", "C"])


def backends() -> list[type]:
    """Every concrete ``StateIndex`` subclass the package defines."""
    found, todo = set(), [StateIndex]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_backend_is_covered():
    """Every backend the package defines runs through the store machine
    and the GC check below (both read ``INDEX_CLASSES``)."""
    assert set(backends()) == set(INDEX_CLASSES)


def test_only_bit_address_probers_die_with_an_arrival():
    """A bit-address prober captures the state's size, its live-bucket
    count and its masked column slices; the other backends' probers read
    what insert and remove update in place."""
    keeping = {cls for cls in backends() if cls.probers_outlive_storage}
    assert keeping >= {ScanIndex, InvertedListIndex, MultiHashIndex}
    assert not keeping & {BitAddressIndex, StaticBitmapIndex}


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
