"""Every index class, after every step, answers as a never-probed rebuild.

Section III promises that one bit-address index answers every access
pattern correctly, whatever history of inserts, expiries and ``BI1 -> BI2``
migrations built it; adaptive indexing is judged by the same rule: an index
built up incrementally answers as one built from scratch.  One hypothesis
state machine per index class drives a :class:`StateStore` and a twin
store over the same class and configuration.  Every mutation is applied to
both; refusals and the batched probe go to the store only, and the twin
answers the same probes one row at a time.

After every step both stores answer every pattern, over a fixed probe set
plus three live rows, as an index of the same class and configuration
rebuilt from the live window that no probe has touched (for the
bit-address family the walk-only class, so a count answer is held to the
walk):

- with the same ``buckets_visited``, ``tuples_examined`` and
  ``used_full_scan`` per row, and the same ``index_bytes``;
- with the matches a scan of the live window finds: in scan order, or for
  the bit-address family as a multiset (a rebuild's ``set`` iteration may
  differ), in the order of the reference walk read off the same instance;
- and the bit-address slots, free list and value and fragment counts equal
  a recount, the multi-hash charge is the model's, and the two stores'
  accountants are equal.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA
from repro.core.bit_index import BitAddressIndex
from repro.core.index_config import IndexConfiguration
from repro.core.tuner import NullTuner
from repro.engine.tuples import StreamTuple
from repro.indexes.base import UnkeyableValueError
from repro.indexes.hash_index import MultiHashIndex
from repro.storage import StateStore
from tests.conftest import (
    INDEX_CLASSES,
    WalkOnly,
    asks_counts,
    assert_slots_are_consistent,
    count_asks,
    reference_matches,
)


class Text(str):
    """A ``str`` subclass: equal to its text and hashed like it, but free
    to redefine ``==``, so no index takes it."""


#: A stand-in for "the attribute is not there at all".
MISSING = object()

#: Values every index stores: equal across types (``1 == 1.0 == True``),
#: equal zeros of two signs, ``"a" != b"a"``.
VALUES = st.sampled_from([0, 1, 1.0, True, -0.0, 0.5, "a", b"a", None])
#: Values every index refuses, each a different way to be outside the
#: contract: unhashable, a numeric type of its own, a numpy scalar, NaN, a
#: subclass of an exact type, and no value at all.
REFUSED_VALUES = st.sampled_from(
    [[1], Decimal(1), np.int64(1), float("nan"), Text("a"), MISSING]
)
#: Draws are sized for the widest JAS, four attributes; a machine reads
#: the first ``width`` of each.
NAMES = "ABCD"
ROWS = st.lists(VALUES, min_size=4, max_size=4)
BITS = st.lists(st.integers(0, 3), min_size=4, max_size=4)
MODULES = st.sets(st.integers(1, 15), max_size=3)
#: Rows every step probes: a match across types, a value no tuple holds
#: (a count answer), and a row that mixes both.
FIXED_PROBES = [(1,) * 4, (2,) * 4, ("a", 2, None, -0.0)]
WINDOW = 6
#: The classes ``tune`` retunes: a key map to ``reconfigure`` or modules to
#: ``set_patterns`` (the static bitmap refuses ``reconfigure``).
TUNABLE = (BitAddressIndex, WalkOnly, MultiHashIndex)

SETTINGS = settings(max_examples=20, stateful_step_count=25, derandomize=True, deadline=None)


def fields(outcome) -> tuple:
    """An outcome as data: its matches by identity, in order, and its charges."""
    return (
        [id(m) for m in outcome.matches],
        outcome.buckets_visited,
        outcome.tuples_examined,
        outcome.used_full_scan,
    )


def assessor_state(store) -> tuple:
    """What the store's assessor recorded, its RNG position included."""
    assessor = store.tuner.assessor
    sketch = assessor._sketch
    return (
        assessor.n_requests,
        list(assessor.frequencies().items()),
        list(sketch.entries().items()),
        sketch._rng.bit_generator.state,
    )


def rebuilt(index, live):
    """A never-probed index of ``index``'s class and configuration holding
    ``live`` in window order: the walk-only class for the bit-address
    family."""
    if isinstance(index, BitAddressIndex):
        fresh = WalkOnly(index.config)
    elif isinstance(index, MultiHashIndex):
        fresh = MultiHashIndex(index.jas, index.patterns)
    else:
        fresh = type(index)(index.jas)
    for item in live:
        fresh.insert(item)
    return fresh


def check_charge(index, ap, row, outcome) -> None:
    """A multi-hash row is charged what the model prescribes: the whole
    state, as a full scan, with no suitable module; that module's bucket
    with one."""
    module = index.most_suitable_module(ap)
    if module is None:
        assert (outcome.tuples_examined, outcome.used_full_scan) == (index.size, True)
    else:
        key = tuple(row[ap.attributes.index(a)] for a in module.attributes)
        bucket = module.table.get(key, ())
        assert (outcome.tuples_examined, outcome.used_full_scan) == (len(bucket), False)


def with_value(values: dict, name: str, value) -> dict:
    """``values`` with ``value`` at ``name`` (the attribute absent for ``MISSING``)."""
    out = dict(values)
    if value is MISSING:
        del out[name]
    else:
        out[name] = value
    return out


def assert_refused(err, name: str, value, *, inserted=False) -> None:
    """Refused by name: the attribute and the value's type, or for a
    missing attribute a ``KeyError`` (on insert, ``KeyError(attribute)``)."""
    if value is MISSING:
        assert isinstance(err, KeyError)
        if inserted:
            assert err.args == (name,)
    else:
        assert isinstance(err, UnkeyableValueError)
        assert (err.attribute, err.value_type) == (name, type(value))
        assert repr(name) in str(err)
        assert err.stream == ("S" if inserted else None)


class StoreMachine(RuleBasedStateMachine):
    """A store and its twin over ``index_class``."""

    index_class: type
    #: Inserts, over every example of a run, that took a freed bit-address
    #: slot: the reuse the slot invariants below are there to check.
    slots_reused: int

    @initialize(
        width=st.integers(1, 4), bits=BITS, masks=MODULES, rows=st.lists(ROWS, max_size=12)
    )
    def set_up(self, width, bits, masks, rows):
        jas = self.jas = JoinAttributeSet(list(NAMES[:width]))
        self.patterns = [AccessPattern.from_mask(jas, m) for m in range(jas.full_mask + 1)]
        self.probes = [self.row(row) for row in FIXED_PROBES]
        self.stores = self.store, self.twin = self.build(bits, masks), self.build(bits, masks)
        self.now = 0
        #: The most live tuples at once: a bit-address index hands out a
        #: freed slot before a new one, so its slot list is this long.
        self.high = 0
        # A state to start from: two arrivals a tick, so expiry takes a few
        # at a time.
        for i in range(0, len(rows), 2):
            self.insert(1 if i else 0, rows[i : i + 2])

    def build(self, bits, masks) -> StateStore:
        cls, jas = self.index_class, self.jas
        if cls is MultiHashIndex:
            index = cls(jas, self.modules(masks))
        elif issubclass(cls, BitAddressIndex):
            index = cls(IndexConfiguration(jas, bits[: len(jas)]))
        else:
            index = cls(jas)
        # The random-combine CDIA draws from its RNG while compacting, so a
        # column that records one pattern too many or too few shows.
        tuner = NullTuner(CDIA(jas, 0.1, combine="random", seed=3))
        return StateStore("S", jas, index, WINDOW, tuner)

    def row(self, values) -> dict:
        return dict(zip(self.jas.names, values))

    def modules(self, masks) -> list[AccessPattern]:
        full = self.jas.full_mask
        return [AccessPattern.from_mask(self.jas, m & full) for m in sorted(masks) if m & full]

    # -- mutations, applied to both stores --------------------------------- #

    @rule(ticks=st.integers(0, 2), rows=st.lists(ROWS, min_size=1, max_size=4))
    def insert(self, ticks, rows):
        """One tick's arrivals."""
        self.now += ticks
        index = self.store.index
        for values in rows:
            item = StreamTuple("S", self.now, self.row(values))
            if isinstance(index, BitAddressIndex) and index._free:
                type(self).slots_reused += 1
            for store in self.stores:
                store.insert(item, self.now)
        self.high = max(self.high, self.store.size)

    @rule(ticks=st.integers(1, 4))
    def expire(self, ticks):
        self.now += ticks
        assert self.store.expire(self.now) == self.twin.expire(self.now)

    @precondition(lambda self: type(self.store.index) in TUNABLE)
    @rule(bits=BITS, masks=MODULES)
    def tune(self, bits, masks):
        for store in self.stores:
            if isinstance(store.index, MultiHashIndex):
                store.index.set_patterns(self.modules(masks))
            else:
                store.index.reconfigure(IndexConfiguration(self.jas, bits[: len(self.jas)]))

    @precondition(lambda self: not self.store.degraded and self.now > 2 * WINDOW)
    @rule()
    def degrade_to_scan(self):
        live = len(self.store.window)
        assert self.store.degrade_to_scan() == self.twin.degrade_to_scan() == live

    # -- refusals, on the store alone --------------------------------------- #

    @rule(values=ROWS, position=st.integers(0, 3), value=REFUSED_VALUES)
    def refused_insert(self, values, position, value):
        name = self.jas.names[position % len(self.jas)]
        item = StreamTuple("S", self.now, with_value(self.row(values), name, value))
        store = self.store
        before = store.size, [id(t) for t in store.window], store.index.accountant.snapshot()
        with pytest.raises((UnkeyableValueError, KeyError)) as raised:
            store.insert(item, self.now)
        assert_refused(raised.value, name, value, inserted=True)
        assert (store.size, [id(t) for t in store.window], store.index.accountant) == before
        with pytest.raises(KeyError, match="never inserted"):
            store.index.remove(item)

    @rule(
        how=st.sampled_from(["probe", "probe_batch"]),
        values=ROWS,
        position=st.integers(0, 3),
        extra=st.integers(0, 15),
        value=REFUSED_VALUES,
    )
    def refused_probe(self, how, values, position, extra, value):
        jas = self.jas
        position %= len(jas)
        ap = AccessPattern.from_mask(jas, (extra | 1 << position) & jas.full_mask)
        name = jas.names[position]
        good = self.row(values)
        probe = with_value(good, name, value)
        store = self.store
        before = store.index.accountant.snapshot(), assessor_state(store)
        with pytest.raises((UnkeyableValueError, KeyError)) as raised:
            if how == "probe":
                store.probe(ap, probe)
            else:
                # The refused row first, so the check meets it before any
                # row equal to it is answered.
                refused = tuple(probe[a] for a in ap.attributes if a in probe)
                store.probe_batch(ap, [refused, tuple(good[a] for a in ap.attributes)])
        assert_refused(raised.value, name, value)
        assert (store.index.accountant, assessor_state(store)) == before

    # -- a column against the per-row probe --------------------------------- #

    @rule(
        mask=st.integers(0, 15),
        rows=st.lists(ROWS, max_size=5),
        repeats=st.lists(st.integers(0, 7), max_size=4),
    )
    def probe(self, mask, rows, repeats):
        ap = AccessPattern.from_mask(self.jas, mask & self.jas.full_mask)
        probes = [self.row(row) for row in rows] + list(self.store.window)[:2]
        probes += [probes[i % len(probes)] for i in repeats if probes]  # forced duplicates
        column = [tuple(p[a] for a in ap.attributes) for p in probes]
        batched = self.store.probe_batch(ap, column)
        looped = [self.twin.probe(ap, dict(zip(ap.attributes, row))) for row in column]
        assert list(map(fields, batched)) == list(map(fields, looped))
        for i, outcome in enumerate(batched):  # outcomes alias only between equal rows
            for j in range(i):
                assert outcome is not batched[j] or column[i] == column[j]
        assert assessor_state(self.store) == assessor_state(self.twin)

    # -- after every step ---------------------------------------------------- #

    @invariant()
    def answers_as_a_rebuild(self):
        live = list(self.store.window)
        index, twin = self.store.index, self.twin.index
        fresh = rebuilt(index, live)
        bit_address = isinstance(index, BitAddressIndex)
        probes = self.probes + live[:3]
        for ap in self.patterns:
            attributes = ap.attributes
            column = [tuple(p[a] for a in attributes) for p in probes]
            got = index.search_batch(ap, column)
            for probe, row, outcome in zip(probes, column, got, strict=True):
                fresh._drop_probers()  # each row from a prober that answered nothing else
                (want,) = fresh.search_batch(ap, [row])
                scan = [id(m) for m in live if all(m[a] == probe[a] for a in attributes)]
                answer, rebuild = fields(outcome), fields(want)
                ids = answer[0]
                assert fields(twin.search(ap, probe)) == answer, (ap, row)
                assert answer[1:] == rebuild[1:], (ap, row)
                assert outcome.tuples_examined <= len(live)
                if bit_address:
                    assert sorted(ids) == sorted(scan) == sorted(rebuild[0]), (ap, row)
                    assert ids == [id(m) for m in reference_matches(index, ap, probe)], (ap, row)
                else:
                    assert ids == scan == rebuild[0], (ap, row)
                if isinstance(index, MultiHashIndex):
                    check_charge(index, ap, row, outcome)
        assert index.accountant.index_bytes == fresh.accountant.index_bytes
        assert index.accountant == twin.accountant
        if bit_address:
            assert_slots_are_consistent(index, live)
            assert len(index._items) == self.high
            if any(asks_counts(index, ap) for ap in self.patterns):
                assert (count_asks(index) > 0) == (type(index) is not WalkOnly)


@pytest.mark.parametrize("cls", (*INDEX_CLASSES, WalkOnly), ids=lambda cls: cls.__name__)
def test_every_step_answers_as_a_rebuild(cls):
    machine = type(
        f"{cls.__name__}Machine", (StoreMachine,), {"index_class": cls, "slots_reused": 0}
    )
    run_state_machine_as_test(machine, settings=SETTINGS)
    if issubclass(cls, BitAddressIndex):
        # Draws that never refill a freed slot would leave the slot checks
        # nothing to catch.
        assert machine.slots_reused > 0
