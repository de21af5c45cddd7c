"""Shared fixtures for the AMRI reproduction test suite."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import bit_index
from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.index_config import IndexConfiguration
from repro.core.probe_plan import compile_key_plan, compile_probe_plan
from repro.engine.metrics import RegistrySnapshot, SeriesSnapshot
from repro.experiments.parallel import RunSpec, execute_spec
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.utils.bitops import fragment, mask_to_indices, stable_value_hash


def spec_stats(params, scheme: str, ticks: int, training=None):
    """One spec's stats through ``execute_spec``: started from ``training``
    when one is given (shipped on the spec), untrained otherwise."""
    spec = RunSpec(params, scheme, ticks, train=training is not None, training=training)
    return execute_spec(spec).stats


def series(snapshot: RegistrySnapshot, name: str, **labels: str) -> SeriesSnapshot | None:
    """The snapshot's series ``name`` with exactly these labels, if recorded."""
    want = tuple(sorted(labels.items()))
    return next(
        (s for s in snapshot.series if s.name == name and s.labels == want), None
    )


def bucket_key(config: IndexConfiguration, values) -> tuple[int, ...]:
    """The §III reference key map: per JAS attribute, the fragment of its
    value at the configured width (0 where it has no bits) — the key of the
    bucket a bit-address index over ``config`` files ``values`` under."""
    return tuple(
        fragment(values[name], w) if w > 0 else 0
        for name, w in zip(config.jas.names, config.bits)
    )


def asks_counts(index, ap: AccessPattern) -> bool:
    """Whether a probe of ``ap`` asks ``index``'s value and fragment counts:
    a bit-address index, and a pattern that is not a one-bucket point
    probe, probes an attribute and fixes at most one position."""
    if not isinstance(index, bit_index.BitAddressIndex):
        return False
    plan = compile_probe_plan(index.config, ap)
    point = plan.fixed and plan.point_slots is not None
    return bool(plan.n_attributes and not point and len(plan.fixed) <= 1)


def reference_matches(index, ap: AccessPattern, values) -> list:
    """The probe as the engine ran it when the golden corpus was recorded:
    intersect the key sets of the fixed fragments smallest-first (a stable
    sort, so ties keep fixed-position order), walk the surviving buckets in
    the smallest set's iteration order, filter on the probed attributes.
    A fragment one bucket carries maps to the bare key, read as ``{key}``.
    The reference a bit-address index's match order is held to."""
    bits = index.config.bits
    names = index.jas.names
    attributes = ap.attributes
    fixed = [(i, names[i], bits[i]) for i in mask_to_indices(ap.mask) if bits[i] > 0]
    if fixed:
        sets = []
        for pos, name, width in fixed:
            keys = index._frag_maps[pos].get(fragment(values[name], width))
            if not keys:
                return []
            sets.append({keys} if isinstance(keys, tuple) else keys)
        sets.sort(key=len)
        keep = sets[0].intersection(*sets[1:])
        keys = [k for k in sets[0] if k in keep]
    else:
        keys = list(index._buckets)
    return [
        item
        for key in keys
        for item in index.bucket_items(key)
        if all(item[a] == values[a] for a in attributes)
    ]


def assert_slots_are_consistent(idx, live) -> None:
    """Every stored item owns one slot, holding it; every other slot handed
    out so far is on the free list; and the counts kept by every insert,
    remove and reconfigure equal a recount from ``live``: per JAS position,
    value -> tuples (``1``, ``1.0`` and ``True`` one entry), per indexed
    position, fragment -> tuples, no zero count left behind.  The fragment
    maps equal a recount from the live buckets, fragment -> bucket keys:
    an entry is the bare key of a one-key recount or a set equal to the
    recount (a churned set may hold one key)."""
    slots = [idx._entries[id(item)][0] for item in live]
    top = len(slots) + len(idx._free)
    assert sorted(slots + idx._free) == list(range(top))
    assert all(idx._items[slot] is item for slot, item in zip(slots, live))
    names = idx.jas.names
    # Plain dicts: a ``Counter`` compares a zero count equal to a missing one.
    assert idx._value_counts == [dict(Counter(item[a] for item in live)) for a in names]
    assert idx._frag_counts == {
        pos: dict(Counter(stable_value_hash(item[names[pos]]) & mask for item in live))
        for pos, mask in enumerate(compile_key_plan(idx.config).masks)
        if idx.config.bits[pos]
    }
    carried = {pos: {} for pos in idx._frag_maps}
    for key in idx._buckets:
        for pos, keys in carried.items():
            keys.setdefault(key[pos], set()).add(key)
    assert carried == {
        pos: {frag: e if isinstance(e, set) else {e} for frag, e in fmap.items()}
        for pos, fmap in idx._frag_maps.items()
    }


class WalkOnly(bit_index.BitAddressIndex):
    """A bit-address index that never asks its counts: the bucket walk
    alone, the twin a count answer is held to."""

    def _count_probe(self, plan, visited, walk):
        return walk


def count_asks(index) -> int:
    """Probe rows the counts answered or passed on to the walk."""
    return sum(index.count_rows)


#: The five index classes, the bit-address family first.
INDEX_CLASSES = (
    bit_index.BitAddressIndex,
    StaticBitmapIndex,
    MultiHashIndex,
    InvertedListIndex,
    ScanIndex,
)


def build_index(cls, jas: JoinAttributeSet):
    """A fresh index of any of the five classes over ``jas``: two bits per
    attribute where the class has a key map, modules on the first attribute
    and the first two where it has modules."""
    if issubclass(cls, bit_index.BitAddressIndex):
        return cls(IndexConfiguration(jas, [2] * len(jas)))
    if cls is MultiHashIndex:
        names = list(jas.names)
        return cls(jas, [AccessPattern.from_attributes(jas, names[:n]) for n in (1, 2)])
    return cls(jas)


@pytest.fixture
def jas3() -> JoinAttributeSet:
    """The canonical 3-attribute JAS used by the paper's examples."""
    return JoinAttributeSet(["A", "B", "C"])


@pytest.fixture
def jas4() -> JoinAttributeSet:
    return JoinAttributeSet(["A", "B", "C", "D"])


@pytest.fixture
def ap3(jas3):
    """Pattern factory over jas3: ap3('A', 'C') -> <A,*,C>."""

    def make(*names: str) -> AccessPattern:
        return AccessPattern.from_attributes(jas3, names)

    return make


@pytest.fixture
def table2_frequencies(ap3):
    """The Table II worked-example frequency table."""
    return {
        ap3("A"): 0.04,
        ap3("B"): 0.10,
        ap3("C"): 0.10,
        ap3("A", "B"): 0.04,
        ap3("A", "C"): 0.16,
        ap3("B", "C"): 0.10,
        ap3("A", "B", "C"): 0.46,
    }
