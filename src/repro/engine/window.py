"""Sliding-window bookkeeping for one state.

:class:`SlidingWindow` is time-based (the paper's WINDOW clause): tuples
expire a fixed number of time units after arrival, removed by the
executor's per-tick :meth:`~SlidingWindow.expire` sweep.  Maintenance is
amortised O(1), since arrivals are monotone in time.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.engine.tuples import StreamTuple
from repro.utils.validation import check_positive


class SlidingWindow:
    """Time-based sliding window over one stream's tuples."""

    def __init__(self, length: int) -> None:
        check_positive("length", length)
        self.length = int(length)
        self._entries: deque[tuple[int, StreamTuple]] = deque()

    def check_arrival(self, now: int) -> None:
        """Refuse an arrival at time ``now`` earlier than the last one with
        ``ValueError``: arrival times must be non-decreasing."""
        if self._entries and now < self._entries[-1][0] - self.length:
            raise ValueError("window arrivals must be in non-decreasing time order")

    def add(self, item: StreamTuple, now: int) -> None:
        """Admit ``item`` at time ``now``; it expires at ``now + length``.
        An out-of-order arrival is refused as :meth:`check_arrival` says."""
        self.check_arrival(now)
        self._entries.append((now + self.length, item))

    def expire(self, now: int) -> list[StreamTuple]:
        """Remove and return every tuple whose expiry time is ``<= now``."""
        out: list[StreamTuple] = []
        entries = self._entries
        while entries and entries[0][0] <= now:
            out.append(entries.popleft()[1])
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StreamTuple]:
        return (item for _exp, item in self._entries)
