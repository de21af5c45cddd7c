"""Run-time statistics: throughput samples and selectivity estimation.

``RunStats`` collects the per-tick series the figures plot (cumulative
output tuples vs time, memory, backlog).  ``SelectivityEstimator`` maintains
the EWMA match-rate estimates the router uses to order probes — the
"up-to-date system statistics" AMR routing adapts to.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ThroughputSample:
    """One point of the cumulative-throughput series."""

    tick: int
    outputs: int
    cost_spent: float
    memory_bytes: int
    backlog: int


@dataclass
class RunStats:
    """Everything one engine run records."""

    samples: list[ThroughputSample] = field(default_factory=list)
    outputs: int = 0
    source_tuples: int = 0
    filtered: int = 0  # arrivals dropped by selection-predicate pushdown
    probes: int = 0
    matches: int = 0
    migrations: int = 0
    tuning_rounds: int = 0

    faults_injected: int = 0  # fault activations; set only by the test suite's fault harness
    shed_tuples: int = 0  # backlogged requests dropped by graceful degradation
    degradations: int = 0  # states that fell back to an unindexed full scan

    died_at: int | None = None
    death_reason: str | None = None

    def sample(
        self, tick: int, cost_spent: float, memory_bytes: int, backlog: int
    ) -> None:
        """Append one throughput sample."""
        self.samples.append(
            ThroughputSample(
                tick=tick,
                outputs=self.outputs,
                cost_spent=cost_spent,
                memory_bytes=memory_bytes,
                backlog=backlog,
            )
        )

    @property
    def completed(self) -> bool:
        """True when the run finished its full duration (no OOM death)."""
        return self.died_at is None

    def outputs_at(self, tick: int) -> int:
        """Cumulative outputs at the last sample with ``sample.tick <= tick``."""
        best = 0
        for s in self.samples:
            if s.tick <= tick:
                best = s.outputs
            else:
                break
        return best


class SelectivityEstimator:
    """EWMA estimates of matches-per-probe for (target stream, pattern mask).

    The router asks for the expected fan-out of probing a target given which
    streams are already joined; estimates adapt as drift moves the data,
    which is what makes the routing *multi-route adaptive*.
    """

    def __init__(self, alpha: float = 0.05, initial: float = 1.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.initial = initial
        self._estimates: dict[tuple[str, int], float] = {}

    def observe(self, target: str, pattern_mask: int, matches: int) -> None:
        """Fold one probe's observed match count into the estimate."""
        key = (target, pattern_mask)
        prev = self._estimates.get(key, self.initial)
        self._estimates[key] = prev + self.alpha * (matches - prev)

    def observe_many(self, target: str, pattern_mask: int, counts: list[int]) -> None:
        """Fold a hop's match counts, in probe order, into the estimate.

        The same recurrence as one :meth:`observe` per count — identical
        floats — with a single read and write of the estimate.
        """
        if not counts:
            return
        key = (target, pattern_mask)
        estimate = self._estimates.get(key, self.initial)
        alpha = self.alpha
        for matches in counts:
            estimate = estimate + alpha * (matches - estimate)
        self._estimates[key] = estimate

    def expected_matches(self, target: str, pattern_mask: int) -> float:
        """Current estimate for probes of this shape (optimistic default)."""
        return self._estimates.get((target, pattern_mask), self.initial)

    @property
    def estimates(self) -> Mapping[tuple[str, int], float]:
        """The live estimates by ``(target, pattern mask)``, read-only.

        ``estimates.get(key, initial)`` is :meth:`expected_matches` for a
        caller that holds its keys already (the routers' route DAG).  The
        mapping changes as probes are observed; it is not a copy.
        """
        return self._estimates

    def snapshot(self) -> dict[tuple[str, int], float]:
        """Copy of all current estimates (diagnostics)."""
        return dict(self._estimates)
