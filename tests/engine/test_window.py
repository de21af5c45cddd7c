"""Tests for sliding-window bookkeeping."""

import pytest

from repro.engine.tuples import StreamTuple
from repro.engine.window import SlidingWindow


def tup(t):
    return StreamTuple("A", t, {"x": t})


class TestSlidingWindow:
    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_add_and_len(self):
        w = SlidingWindow(10)
        w.add(tup(0), 0)
        w.add(tup(1), 1)
        assert len(w) == 2

    def test_expiry_boundary(self):
        w = SlidingWindow(5)
        a = tup(0)
        w.add(a, 0)  # expires at tick 5
        assert w.expire(4) == []
        assert w.expire(5) == [a]
        assert len(w) == 0

    def test_expire_returns_in_order(self):
        w = SlidingWindow(3)
        items = [tup(t) for t in range(5)]
        for t, item in enumerate(items):
            w.add(item, t)
        expired = w.expire(4)  # expiry ticks 3 and 4
        assert expired == items[:2]

    def test_iteration_excludes_expired(self):
        w = SlidingWindow(2)
        a, b = tup(0), tup(3)
        w.add(a, 0)
        w.add(b, 3)
        w.expire(3)
        assert list(w) == [b]

    def test_oldest_expiry(self):
        w = SlidingWindow(7)
        assert w.oldest_expiry() is None
        w.add(tup(2), 2)
        assert w.oldest_expiry() == 9

    def test_expire_empty(self):
        assert SlidingWindow(3).expire(100) == []

    def test_repeated_expire_idempotent(self):
        w = SlidingWindow(1)
        w.add(tup(0), 0)
        assert len(w.expire(10)) == 1
        assert w.expire(10) == []


class TestCountWindow:
    def make(self, capacity=3):
        from repro.engine.window import CountWindow

        return CountWindow(capacity)

    def test_rejects_bad_capacity(self):
        import pytest as _pytest
        from repro.engine.window import CountWindow

        with _pytest.raises(ValueError):
            CountWindow(0)

    def test_evicts_oldest_beyond_capacity(self):
        w = self.make(2)
        a, b, c = tup(0), tup(1), tup(2)
        assert w.add(a, 0) == []
        assert w.add(b, 1) == []
        assert w.add(c, 2) == [a]
        assert list(w) == [b, c]

    def test_never_expires_by_time(self):
        w = self.make(2)
        w.add(tup(0), 0)
        assert w.expire(1000) == []
        assert len(w) == 1

    def test_oldest_expiry_none(self):
        assert self.make().oldest_expiry() is None


class TestSlidingWindowProtocol:
    def test_add_returns_empty_eviction_list(self):
        w = SlidingWindow(5)
        assert w.add(tup(0), 0) == []


class TestSteMWithCountWindow:
    def test_insert_evicts_from_index(self):
        from repro.core.access_pattern import AccessPattern, JoinAttributeSet
        from repro.core.bit_index import make_bit_index
        from repro.storage import StateStore
        from repro.engine.tuples import StreamTuple
        from repro.engine.window import CountWindow

        jas = JoinAttributeSet(["k"])
        stem = StateStore("S", jas, make_bit_index(jas, [3]), CountWindow(2))
        items = [StreamTuple("S", t, {"k": 1}) for t in range(4)]
        for t, item in enumerate(items):
            stem.insert(item, t)
        assert stem.size == 2
        ap = AccessPattern.from_attributes(jas, ["k"])
        out = stem.probe(ap, {"k": 1})
        assert sorted(m.arrived_at for m in out.matches) == [2, 3]
