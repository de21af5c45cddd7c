"""Tests for the budgeted incremental migration lifecycle."""

import pytest

from repro.core.bit_index import make_bit_index
from repro.core.index_config import IndexConfiguration
from repro.engine.tuples import StreamTuple
from repro.indexes.base import Accountant
from repro.indexes.scan_index import ScanIndex
from repro.storage import (
    MIGRATION_DONE,
    MIGRATION_START,
    MIGRATION_STEP,
    IndexLifecycle,
    StateStore,
)


def tup(t, a=1, b=2, c=3):
    return StreamTuple("S", t, {"A": a, "B": b, "C": c})


def make_store(jas3, *, budget=None, n=10):
    store = StateStore(
        "S", jas3, make_bit_index(jas3, [2, 2, 2]), window=1000, migration_budget=budget
    )
    for i in range(n):
        store.insert(tup(i, a=i % 4, b=i % 3, c=i), i)
    return store


class TestUnbudgeted:
    def test_begin_is_the_legacy_single_tick_rebuild(self, jas3):
        store = make_store(jas3)
        reference = make_bit_index(jas3, [2, 2, 2], Accountant())
        for i in range(10):
            reference.insert(tup(i, a=i % 4, b=i % 3, c=i))
        new = IndexConfiguration(jas3, [4, 1, 1])

        report = store.lifecycle.begin(new)
        reference.reconfigure(new)

        assert report.tuples_moved == 10
        assert not store.lifecycle.active
        assert store.index.config == new
        assert store.index.accountant == reference.accountant

    def test_step_is_a_noop_when_idle(self, jas3):
        store = make_store(jas3)
        assert store.lifecycle.step() is None
        assert store.migration_step() is None


class TestBudgetedDrain:
    def test_dual_structure_phase_and_drain(self, jas3):
        store = make_store(jas3, budget=3)
        old = store.index
        report = store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))
        assert report.tuples_moved == 0
        assert store.lifecycle.active and store.migration_active
        assert store.lifecycle.draining is old
        assert store.index is not old
        assert store.size == 10  # nothing lost while both structures coexist

        steps = []
        while store.lifecycle.active:
            steps.append(store.lifecycle.step())
        assert [s.moved for s in steps] == [3, 3, 3, 1]
        assert steps[-1].done
        assert store.index.size == 10 and not store.migration_active

    def test_counters_match_stop_the_world_exactly(self, jas3):
        budgeted = make_store(jas3, budget=4)
        legacy = make_store(jas3)
        new = IndexConfiguration(jas3, [4, 1, 1])

        legacy.lifecycle.begin(new)
        budgeted.lifecycle.begin(new)
        while budgeted.lifecycle.active:
            budgeted.lifecycle.step()

        # A budget re-times the migration, it does not discount it: every
        # counter — hashes, moves, refunded inserts/deletes — and the final
        # index_bytes gauge agree with the single-tick rebuild.
        assert budgeted.index.accountant == legacy.index.accountant

    def test_gauge_shows_the_dual_structure_peak(self, jas3):
        # Dense buckets make the dual-structure surplus visible: the old
        # structure's bucket scaffolding is only freed as its last tuples
        # leave, while the new structure's buckets appear immediately.
        store = StateStore(
            "S", jas3, make_bit_index(jas3, [2, 0, 0]), window=1000, migration_budget=3
        )
        for i in range(12):
            store.insert(tup(i, a=i % 4, b=i % 3), i)
        acct = store.index.accountant
        single_before = acct.index_bytes

        store.lifecycle.begin(IndexConfiguration(jas3, [0, 2, 0]))
        peak = acct.index_bytes
        while store.lifecycle.active:
            peak = max(peak, store.lifecycle.step().index_bytes)
        single_after = acct.index_bytes

        assert peak > single_before  # both structures' buckets coexisted
        assert peak > single_after

    def test_probes_merge_both_structures(self, jas3, ap3):
        store = make_store(jas3, budget=3)
        store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))
        store.lifecycle.step()
        out = store.probe(ap3("A"), {"A": 1})
        hits = [m for m in out.matches if m["A"] == 1]
        assert len(hits) == 3  # tuples 1, 5, 9 — wherever each one lives

    def test_removals_route_to_whichever_structure_holds_the_tuple(self, jas3):
        store = make_store(jas3, budget=3)
        store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))
        store.lifecycle.step()  # 3 tuples now live in the new structure
        drained_before = store.lifecycle.draining.size
        store.insert(tup(100, a=9), 100)  # arrivals go to the new structure
        assert store.lifecycle.draining.size == drained_before
        expired = store.expire(1000 + 5)  # expire the oldest (still draining)
        assert expired > 0
        assert store.size == 10 + 1 - expired

    def test_expired_pending_tuples_skip_without_consuming_budget(self, jas3):
        store = make_store(jas3, budget=5)
        store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))
        store.expire(1000 + 3)  # tuples 0-3 leave the draining structure
        report = store.lifecycle.step()
        assert report.moved == 5  # a full budget of *live* tuples moved
        assert report.remaining == 10 - 4 - 5

    def test_rebegin_force_finishes_the_inflight_drain(self, jas3):
        store = make_store(jas3, budget=3)
        store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))
        store.lifecycle.step()
        store.lifecycle.begin(IndexConfiguration(jas3, [1, 4, 1]))
        # The second begin() drained the first migration wholesale before
        # opening the new dual-structure phase.
        notices = [kind for kind, _ in store.lifecycle.drain_notices()]
        assert notices.count(MIGRATION_START) == 2
        assert MIGRATION_DONE in notices
        assert store.lifecycle.active
        assert store.lifecycle.draining.config == IndexConfiguration(jas3, [4, 1, 1])

    def test_notice_sequence(self, jas3):
        store = make_store(jas3, budget=4)
        store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))
        while store.lifecycle.active:
            store.lifecycle.step()
        kinds = [kind for kind, _ in store.lifecycle.drain_notices()]
        assert kinds == [MIGRATION_START, MIGRATION_STEP, MIGRATION_STEP, MIGRATION_STEP, MIGRATION_DONE]
        assert store.lifecycle.notices == []  # drained

    def test_non_reconfigurable_backend_is_rejected(self, jas3):
        store = StateStore("S", jas3, ScanIndex(jas3), window=10, migration_budget=2)
        with pytest.raises(RuntimeError, match="does not support key-map migration"):
            store.lifecycle.begin(IndexConfiguration(jas3, [4, 1, 1]))

    def test_budget_must_be_positive(self, jas3):
        with pytest.raises(ValueError):
            IndexLifecycle(None, budget=0)
