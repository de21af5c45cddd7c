"""Virtual-clock cost accounting and memory budgeting for the AMR engine.

The paper measures wall-clock throughput of a compiled engine on fixed
hardware; the reproducible equivalent here is an *operation-priced virtual
clock*.  Every hash, comparison, bucket visit, insert, delete, move, and
routing decision is charged in cost units (see
:class:`~repro.indexes.base.CostParams`); the engine has a fixed processing
``capacity`` of cost units per time unit.  Work that does not fit in a tick
stays queued — the backlog — and queued items occupy memory.  A scheme whose
per-request cost exceeds capacity therefore accumulates backlog until the
memory budget is breached, reproducing the out-of-memory deaths the paper
reports for under- and over-indexed schemes (Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.indexes.base import CostParams
from repro.utils.validation import check_positive


class MemoryBudgetExceeded(RuntimeError):
    """Raised when tracked engine memory crosses the configured budget."""

    def __init__(self, used: int, budget: int, at_tick: int, detail: str = "") -> None:
        self.used = used
        self.budget = budget
        self.at_tick = at_tick
        msg = f"memory budget exceeded at tick {at_tick}: {used} > {budget} bytes"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass
class MemoryBreakdown:
    """Where the engine's memory currently goes, in bytes."""

    state_payload: int = 0
    index_structures: int = 0
    backlog: int = 0
    statistics: int = 0

    @property
    def total(self) -> int:
        return self.state_payload + self.index_structures + self.backlog + self.statistics


@dataclass
class ResourceMeter:
    """The engine's clock and memory gauge.

    ``capacity`` is cost units processable per time unit.  ``spend`` draws
    from the current tick's budget and may drive it negative (an operation
    is never split); the deficit carries into the next tick, modelling an
    operation that straddles tick boundaries.
    """

    params: CostParams = field(default_factory=CostParams)
    capacity: float = 10_000.0
    memory_budget: int = 8_000_000

    tick_budget: float = 0.0
    total_spent: float = 0.0

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)
        check_positive("memory_budget", self.memory_budget)

    def start_tick(self) -> None:
        """Grant this tick's capacity (carrying over any deficit)."""
        self.tick_budget = min(self.tick_budget + self.capacity, self.capacity)

    def spend(self, cost: float) -> None:
        """Charge ``cost`` units against the current tick."""
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        self.tick_budget -= cost
        self.total_spent += cost

    @property
    def exhausted(self) -> bool:
        """True when this tick's capacity is used up."""
        return self.tick_budget <= 0.0

    def check_memory(self, breakdown: MemoryBreakdown, at_tick: int) -> None:
        """Raise :class:`MemoryBudgetExceeded` when over budget."""
        used = breakdown.total
        if used > self.memory_budget:
            detail = (
                f"payload={breakdown.state_payload} index={breakdown.index_structures} "
                f"backlog={breakdown.backlog} stats={breakdown.statistics}"
            )
            raise MemoryBudgetExceeded(used, self.memory_budget, at_tick, detail)


@dataclass(frozen=True)
class DegradationPolicy:
    """How a run trades fidelity for survival under memory pressure.

    When the audited footprint crosses ``headroom`` of the budget, the
    executor applies remedies in order of increasing
    severity instead of dying:

    1. **shed** — drop backlogged search requests oldest-first until the
       footprint is back under headroom (results those requests would have
       produced are lost, which is load shedding's explicit bargain);
    2. **degrade** — if still over the *hard* budget, replace the
       heaviest index structure with an unindexed full-scan fallback
       (``ScanIndex``), releasing its memory at the price of slower probes.

    Only when both remedies leave the run over budget does it die — still
    recorded, never raised.  Every remedy emits a ``shed`` / ``degrade``
    event through the attached :class:`~repro.engine.tracing.EventLog`.
    """

    headroom: float = 0.9  # start shedding at this fraction of the budget
    shed_floor: int = 16  # never shed the newest this many requests
    scan_fallback: bool = True  # allow index -> full-scan degradation

    def __post_init__(self) -> None:
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError(f"headroom must be in (0, 1], got {self.headroom}")
        if self.shed_floor < 0:
            raise ValueError(f"shed_floor must be >= 0, got {self.shed_floor}")
