"""Tests for stream tuples and joined partial results."""

import pytest

from repro.engine.tuples import JoinedTuple, StreamTuple


class TestStreamTuple:
    def test_mapping_protocol(self):
        t = StreamTuple("A", 5, {"x": 1, "y": 2})
        assert t["x"] == 1
        assert set(t) == {"x", "y"}
        assert len(t) == 2
        assert "x" in t

    def test_provenance(self):
        t = StreamTuple("A", 5, {})
        assert t.stream == "A" and t.arrived_at == 5

    def test_values_copied(self):
        src = {"x": 1}
        t = StreamTuple("A", 0, src)
        src["x"] = 99
        assert t["x"] == 1

    def test_repr(self):
        assert "A@3" in repr(StreamTuple("A", 3, {"x": 1}))


class TestJoinedTuple:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JoinedTuple(())

    def test_rejects_duplicate_stream(self):
        a1 = StreamTuple("A", 1, {"x": 1})
        a2 = StreamTuple("A", 2, {"x": 2})
        with pytest.raises(ValueError):
            JoinedTuple((a1, a2))
