"""The staged engine kernel: explicit context, stages, schedulers.

The monolithic :class:`~repro.engine.executor.AMRExecutor` tick loop is
decomposed into a composition of explicit parts:

- :class:`EngineContext` — every piece of run state (states, router,
  meter, stats, metrics, fault plan, queue) plus the cost-attribution
  plumbing, in one place;
- the :class:`Stage` protocol and its standard implementations
  (:class:`ArrivalStage`, :class:`ExpiryStage`, :class:`RouteProbeStage`,
  :class:`FaultStage`, :class:`TuningStage`, :class:`MigrationStage`,
  :class:`SloStage`, :class:`ShedDegradeStage`, :class:`AuditStage`) — each
  tick phase is one object with one job;
- the :class:`Scheduler` protocol deciding which backlogged search request
  runs next (:class:`FifoScheduler` reproduces the historical
  drain-in-arrival-order policy bit-for-bit; :class:`BacklogAwareScheduler`
  serves the deepest per-stream backlog first);
- :class:`EngineKernel` — the loop that advances the virtual clock and
  runs the stages in canonical order.

:class:`~repro.engine.executor.AMRExecutor` remains the public facade: it
assembles the default pipeline and is byte-identical to the pre-kernel
monolith (held to committed goldens by
``tests/integration/test_golden_equivalence.py``).
"""

from repro.engine.kernel.context import EngineContext
from repro.engine.kernel.kernel import EngineKernel, default_stages
from repro.engine.kernel.scheduler import (
    SCHEDULERS,
    BacklogAwareScheduler,
    FifoScheduler,
    Scheduler,
    per_stream_depths,
    resolve_scheduler,
)
from repro.engine.kernel.stages import (
    ArrivalStage,
    AuditStage,
    ExpiryStage,
    FaultStage,
    MigrationStage,
    RouteProbeStage,
    ShedDegradeStage,
    SloStage,
    Stage,
    TickState,
    TuningStage,
)

__all__ = [
    "ArrivalStage",
    "AuditStage",
    "BacklogAwareScheduler",
    "EngineContext",
    "EngineKernel",
    "ExpiryStage",
    "FaultStage",
    "FifoScheduler",
    "MigrationStage",
    "RouteProbeStage",
    "SCHEDULERS",
    "Scheduler",
    "ShedDegradeStage",
    "SloStage",
    "Stage",
    "TickState",
    "TuningStage",
    "default_stages",
    "per_stream_depths",
    "resolve_scheduler",
]
