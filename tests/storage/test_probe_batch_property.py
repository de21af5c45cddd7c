"""``StateStore.probe_batch`` is the ``probe`` loop, on every index class.

The route/probe stage hands a hop's same-pattern probes to
``probe_batch`` as one column of value rows (tuples aligned with
``ap.attributes``) and relies on its docstring: equal to one ``probe``
per row.  The by-name ``probe`` is the reference; this property holds the
column to it on a twin store — each row's match list in order and work
figures, every accountant counter and the assessor's statistics (RNG
position included) — over all five index classes, and after a
stop-the-world reconfigure (a migration) for the class whose key map can
change, with duplicate probe rows (whose outcomes may be one shared
object).  A bit-address backend runs twice: as it is, where a probe with
at most one fixed position asks the value and fragment counts first, and
as its walk-only twin, which never asks them; both must read as the loop
does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA
from repro.core.bit_index import BitAddressIndex
from repro.core.index_config import IndexConfiguration
from repro.core.tuner import NullTuner
from repro.engine.tuples import StreamTuple
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.storage import StateStore
from tests.conftest import WalkOnly, asks_counts, build_index, count_asks

JAS = JoinAttributeSet(["A", "B", "C"])

INDEX_CLASSES = {
    "bit_address": BitAddressIndex,
    "inverted": InvertedListIndex,
    "multi_hash": MultiHashIndex,
    "scan": ScanIndex,
    "static_bitmap": StaticBitmapIndex,
}

#: The bit-address family's twins that never ask the counts.
WALK_ONLY = {
    BitAddressIndex: WalkOnly,
    StaticBitmapIndex: type("WalkOnlyStatic", (WalkOnly, StaticBitmapIndex), {}),
}

#: (backend, migrated): only the bit-address index's key map can change.
CASES = [
    (name, migrated)
    for name in INDEX_CLASSES
    for migrated in (False, True)
    if not migrated or name == "bit_address"
]

values = st.integers(0, 3)
items = st.lists(st.tuples(values, values, values), min_size=1, max_size=24)


def build_store(cls, migrated: bool, stored) -> StateStore:
    store = StateStore(
        "S",
        JAS,
        build_index(cls, JAS),
        window=1000,
        # The random-combine CDIA draws from its RNG while compacting, so a
        # column that records one pattern too few or too many shows.
        tuner=NullTuner(CDIA(JAS, 0.1, combine="random", seed=3)),
    )
    for i, (a, b, c) in enumerate(stored):
        store.insert(StreamTuple("S", i, {"A": a, "B": b, "C": c}), i)
    if migrated:
        store.index.reconfigure(IndexConfiguration(JAS, [4, 1, 1]))
    return store


def observables(store: StateStore, outcomes) -> dict:
    assessor = store.tuner.assessor
    sketch = assessor._sketch
    return {
        # Stored tuples compare by value; arrival stamps (unique per twin
        # store) pin which tuples matched and in what order.
        "outcomes": [
            (
                [m.arrived_at for m in o.matches],
                o.buckets_visited,
                o.tuples_examined,
                o.used_full_scan,
            )
            for o in outcomes
        ],
        "accountant": store.index.accountant,
        "assessor": (
            assessor.n_requests,
            list(assessor.frequencies().items()),
            list(sketch.entries().items()),
            sketch._rng.bit_generator.state,
        ),
    }


@pytest.mark.parametrize("backend,migrated", CASES)
@settings(max_examples=50, deadline=None)
@given(
    stored=items,
    mask=st.integers(0, 7),
    rows=st.lists(st.tuples(values, values, values), max_size=12),
    repeats=st.lists(st.integers(0, 11), max_size=6),
)
def test_probe_batch_equals_the_probe_loop(backend, migrated, stored, mask, rows, repeats):
    ap = AccessPattern.from_mask(JAS, mask)
    rows = rows + [rows[i % len(rows)] for i in repeats if rows]  # forced duplicates
    column = [tuple(row[JAS.names.index(name)] for name in ap.attributes) for row in rows]
    default = INDEX_CLASSES[backend]
    for cls in dict.fromkeys((default, WALK_ONLY.get(default, default))):
        looped = build_store(cls, migrated, stored)
        batched = build_store(cls, migrated, stored)
        by_loop = [looped.probe(ap, dict(zip(ap.attributes, row))) for row in column]
        index = batched.index
        by_batch = batched.probe_batch(ap, column)
        assert observables(batched, by_batch) == observables(looped, by_loop)
        if column and asks_counts(index, ap):
            assert (count_asks(index) > 0) == (cls is default)
        # Outcomes alias only between equal rows.
        for i, a in enumerate(by_batch):
            for j in range(i):
                assert a is not by_batch[j] or column[i] == column[j]
