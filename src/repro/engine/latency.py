"""Queueing latency: how many ticks each search request waited.

The virtual clock measures *cost*; this module measures *waiting*.  Every
request tuple is stamped with its arrival tick when it enters the backlog
(``StreamTuple.arrived_at``), and a request leaves the backlog one of
three ways, each reported to an attached :class:`LatencyTracker`:

- **processed** — the route/probe stage reports ``tick - arrived_at``;
- **shed** — the degradation policy dropped it under memory pressure;
- **unfinished** — still queued when the run ended or died
  (:meth:`~repro.engine.kernel.EngineKernel.finish` reports its wait so
  far).

So ``count + shed + unfinished`` is every admitted request
(``RunStats.source_tuples``).  Both ticks are integers, so a latency is a
whole number of ticks and the tracker keeps one exact count per latency
value: quantiles are exact order statistics, not bucket estimates.

The tracker is pure bookkeeping — it never touches engine state, RNG
streams, or the virtual clock, so arming it cannot perturb a run; with no
tracker attached every hook is a no-op.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = ["LatencySnapshot", "LatencyTracker"]


class LatencyTracker:
    """Exact per-latency request counts for one engine run."""

    __slots__ = ("counts", "shed", "unfinished", "unfinished_max_wait")

    def __init__(self) -> None:
        #: latency in ticks -> processed requests that waited that long
        self.counts: Counter[int] = Counter()
        self.shed = 0
        self.unfinished = 0
        self.unfinished_max_wait = 0  # the oldest unfinished request's wait

    def observe(self, latency: int) -> None:
        """Record one processed request's arrival→emit latency in ticks."""
        self.counts[latency] += 1

    def observe_shed(self, requests: int) -> None:
        """Record requests shed from the backlog (they never emitted)."""
        self.shed += requests

    def observe_unfinished(self, waited: int) -> None:
        """Record one request still queued at the end of the run."""
        self.unfinished += 1
        if waited > self.unfinished_max_wait:
            self.unfinished_max_wait = waited

    def snapshot(self) -> "LatencySnapshot":
        """Freeze the tracker (picklable, equal in-process and from a pool)."""
        return LatencySnapshot(
            latencies=tuple(sorted(self.counts.items())),
            shed=self.shed,
            unfinished=self.unfinished,
            unfinished_max_wait=self.unfinished_max_wait,
        )


@dataclass(frozen=True)
class LatencySnapshot:
    """A frozen latency measurement.

    ``latencies`` are ``(latency_ticks, requests)`` pairs sorted by
    latency, one per distinct latency of a processed request.
    """

    latencies: tuple[tuple[int, int], ...] = ()
    shed: int = 0
    unfinished: int = 0
    unfinished_max_wait: int = 0

    @property
    def count(self) -> int:
        """Processed requests (the population the quantiles are over)."""
        return sum(requests for _, requests in self.latencies)

    @property
    def mean(self) -> float | None:
        """Mean latency of the processed requests, in ticks."""
        count = self.count
        if not count:
            return None
        return sum(latency * requests for latency, requests in self.latencies) / count

    def _order_statistic(self, rank: int) -> int:
        """The ``rank``-th smallest latency (0-based)."""
        seen = 0
        for latency, requests in self.latencies:
            seen += requests
            if rank < seen:
                return latency
        raise IndexError(f"rank {rank} out of range for {seen} requests")

    def quantile(self, q: float) -> float | None:
        """Exact ``q``-quantile, ``None`` when nothing was processed.

        Linear interpolation between the order statistics around position
        ``q * (n - 1)`` — the same rule as sorting every latency into a
        list and indexing it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        n = self.count
        if n == 0:
            return None
        pos = q * (n - 1)
        lo = int(pos)
        low = self._order_statistic(lo)
        high = self._order_statistic(min(lo + 1, n - 1))
        return low + (high - low) * (pos - lo)

    def to_records(self) -> list[dict[str, object]]:
        """One aggregate ``latency`` record for the shared JSONL export."""
        return [
            {
                "record": "latency",
                "requests": self.count,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                "mean": self.mean,
                "shed": self.shed,
                "unfinished": self.unfinished,
                "unfinished_max_wait": self.unfinished_max_wait,
            }
        ]
