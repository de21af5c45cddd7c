"""Stream tuples and join results.

A ``StreamTuple`` implements the ``Mapping[str, value]`` protocol the index
layer reads.  A ``JoinedTuple`` is what an output sink receives: the source
tuples of one result, in join order.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping


class StreamTuple(Mapping[str, object]):
    """One tuple from one stream: immutable attribute values plus provenance."""

    __slots__ = ("stream", "arrived_at", "_values")

    def __init__(self, stream: str, arrived_at: int, values: Mapping[str, object]) -> None:
        self.stream = stream
        self.arrived_at = arrived_at
        self._values = dict(values)

    def __getitem__(self, key: str) -> object:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        vals = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"StreamTuple({self.stream}@{self.arrived_at}: {vals})"


class JoinedTuple:
    """A join result: its source tuples in join order, one per stream.

    The engine carries partial results as plain tuples of sources and builds
    one of these per result only for an attached output sink.
    """

    __slots__ = ("sources",)

    def __init__(self, sources: tuple[StreamTuple, ...]) -> None:
        if not sources:
            raise ValueError("a joined tuple needs at least one source")
        streams = [s.stream for s in sources]
        if len(set(streams)) != len(streams):
            raise ValueError(f"duplicate source streams in join: {streams}")
        self.sources = sources
