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

    def test_expire_empty(self):
        assert SlidingWindow(3).expire(100) == []

    def test_rejects_an_arrival_earlier_than_the_last(self):
        w = SlidingWindow(5)
        w.add(tup(3), 3)
        w.check_arrival(3)  # equal times are in order
        with pytest.raises(ValueError, match="non-decreasing"):
            w.add(tup(2), 2)
        assert list(w) == [w.expire(8)[0]]  # only the first was admitted

    def test_repeated_expire_idempotent(self):
        w = SlidingWindow(1)
        w.add(tup(0), 0)
        assert len(w.expire(10)) == 1
        assert w.expire(10) == []
