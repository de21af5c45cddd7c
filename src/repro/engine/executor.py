"""The AMR executor facade over the staged engine kernel.

Discrete-time semantics (unchanged since the monolith this module used to
be — the loop now lives in :mod:`repro.engine.kernel`):

1. Each tick, the workload generator delivers ``λ_d`` tuples per stream;
   each is inserted into its state immediately (window maintenance is not
   deferrable) and its *search-request work* is queued.
2. The engine drains the queue while the tick's cost-unit capacity lasts:
   for each tuple a route over the remaining states is chosen (Eddy-style,
   possibly exploratory) and the partial result set is pushed through the
   route hop by hop, joining only with strictly-older tuples so every
   result is produced exactly once.  Every probe is a search request whose
   access pattern depends on what is already joined — the diversity AMRI
   exists to serve.  Requests that do not fit in a tick form the *backlog*.
3. Windows expire, tuners run on their assessment interval, and memory is
   audited: payloads + index structures + backlog + statistics must fit the
   budget or the run dies (recorded, not raised, so harnesses can compare
   dead and live schemes).

:class:`AMRExecutor` is now a thin facade: it assembles an
:class:`~repro.engine.kernel.EngineContext` plus the default stage
pipeline (``arrivals → expiry → route/probe → tuning → shed/degrade →
audit``) and delegates the loop to
:class:`~repro.engine.kernel.EngineKernel`.  The decomposition is
byte-identical to the monolith — every float add, RNG draw, event and
cost series is preserved, which
``tests/integration/test_golden_equivalence.py`` holds against goldens
generated *before* the refactor.  The backlog drains in arrival order;
the one knob, custom ``stages``, defaults to
:func:`~repro.engine.kernel.default_stages`.

All index work is charged through the per-state accountants, so different
index schemes consume the same capacity at different rates — slower schemes
build backlog, produce fewer outputs per tick, and eventually die of
memory, which is exactly the behaviour Section V reports.

Observability: every virtual-clock charge flows through
:meth:`~repro.engine.kernel.EngineContext.spend`, which attributes the
*same float* to a labelled series on the attached
:class:`~repro.engine.metrics.MetricsRegistry` ``(component, stream,
index_kind, phase)`` immediately after spending it — so the attributed
grand total equals ``meter.total_spent`` bit-for-bit.  Discrete facts
(tuning outcomes, shedding, degradation, death) are events in the
attached :class:`~repro.engine.tracing.EventLog`.  With no
registry attached every metrics hook is a no-op and the run is
byte-identical (asserted by the differential suites).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine.kernel.context import EngineContext, index_kind_label
from repro.engine.kernel.kernel import EngineKernel, default_stages
from repro.engine.kernel.stages import Stage
from repro.engine.metrics import MetricsRegistry
from repro.engine.query import Query
from repro.engine.resources import ResourceMeter
from repro.engine.router import Router
from repro.engine.stats import RunStats
from repro.storage.store import StateStore
from repro.utils.validation import check_positive

__all__ = [
    "AMRExecutor",
    "ExecutorConfig",
    "index_kind_label",
]


@dataclass
class ExecutorConfig:
    """Knobs of one engine run."""

    assess_interval: int = 50  # ticks between tuning rounds
    # Guard rail: a hop whose matches would extend its request to more
    # partials than this ends the request (a ``fanout_cut`` event).
    max_fanout: int = 50_000

    def __post_init__(self) -> None:
        check_positive("assess_interval", self.assess_interval)
        check_positive("max_fanout", self.max_fanout)


class AMRExecutor:
    """Runs one query over one workload with one index scheme per state.

    Parameters
    ----------
    query:
        The SPJ query (fixes streams, predicates, window).
    stems:
        One :class:`~repro.storage.store.StateStore` (the paper's STeM) per
        stream name.
    router:
        Probe-order policy.
    meter:
        Virtual clock + memory budget.
    arrival_rates:
        ``stream -> λ_d`` (tuples per tick), used for tuning contexts.
    domain_bits:
        ``attribute -> value entropy`` handed to the cost model at tuning
        time.
    degrade:
        Shed backlog and degrade indexes under memory pressure instead of
        dying (:class:`~repro.engine.kernel.ShedDegradeStage`).
    metrics:
        Optional :class:`~repro.engine.metrics.MetricsRegistry`.  When
        absent (the default) every instrumentation hook is a no-op and the
        run is byte-identical to an uninstrumented one.
    stages:
        A custom stage pipeline replacing
        :func:`~repro.engine.kernel.default_stages`.
    """

    def __init__(
        self,
        query: Query,
        stems: dict[str, StateStore],
        router: Router,
        meter: ResourceMeter,
        *,
        arrival_rates: dict[str, float],
        domain_bits: dict[str, int] | None = None,
        config: ExecutorConfig | None = None,
        output_sink=None,
        event_log=None,
        degrade: bool = False,
        metrics: MetricsRegistry | None = None,
        stages: Sequence[Stage] | None = None,
    ) -> None:
        self._ctx = EngineContext(
            query=query,
            stems=stems,
            router=router,
            meter=meter,
            arrival_rates=dict(arrival_rates),
            domain_bits=dict(domain_bits or {}),
            config=config if config is not None else ExecutorConfig(),
            output_sink=output_sink,
            event_log=event_log,
            degrade=degrade,
            metrics=metrics,
        )
        pipeline = stages if stages is not None else default_stages()
        self._kernel = EngineKernel(self._ctx, pipeline)

    # ------------------------------------------------------------------ #
    # kernel access

    @property
    def context(self) -> EngineContext:
        """The run's shared state (what every stage operates on)."""
        return self._ctx

    @property
    def kernel(self) -> EngineKernel:
        """The staged loop driving this executor."""
        return self._kernel

    # ------------------------------------------------------------------ #
    # run state (delegates into the context)

    @property
    def backlog(self) -> int:
        """Queued-but-unprocessed source tuples."""
        return len(self._ctx.queue)

    # ------------------------------------------------------------------ #
    # the loop

    def run(self, duration: int, arrivals) -> RunStats:
        """Execute ``duration`` ticks.

        ``arrivals`` is a callable ``tick -> list[StreamTuple]`` (workload
        generators provide it).  Returns the collected :class:`RunStats`;
        an out-of-memory death is recorded on the stats, not raised.

        With ``degrade`` set, memory pressure sheds backlog and degrades
        indexes (``shed`` / ``degrade`` events) before it can kill the run.
        """
        return self._kernel.run(duration, arrivals)


def _context_delegate(name: str) -> property:
    def fget(self):
        return getattr(self._ctx, name)

    def fset(self, value):
        setattr(self._ctx, name, value)

    return property(fget, fset)


# The run state the benchmark harness reads off the facade; everything else
# is read through ``executor.context`` / ``executor.kernel``.  Each delegate
# writes through, so a swap (``ex.router = ...``) keeps facade and kernel
# coherent.
for _name in ("stems", "router", "meter", "stats"):
    setattr(AMRExecutor, _name, _context_delegate(_name))
del _name
