"""The staged engine kernel: explicit context and stages.

The monolithic :class:`~repro.engine.executor.AMRExecutor` tick loop is
decomposed into a composition of explicit parts:

- :class:`EngineContext` — every piece of run state (states, router,
  meter, stats, metrics, fault plan, queue) plus the cost-attribution
  plumbing, in one place;
- the :class:`Stage` protocol and its standard implementations
  (:class:`ArrivalStage`, :class:`ExpiryStage`, :class:`RouteProbeStage`,
  :class:`FaultStage`, :class:`TuningStage`,
  :class:`ShedDegradeStage`, :class:`AuditStage`) — each
  tick phase is one object with one job (the backlog drains in arrival
  order);
- :class:`EngineKernel` — the loop that advances the virtual clock and
  runs the stages in canonical order.

:class:`~repro.engine.executor.AMRExecutor` remains the public facade: it
assembles the default pipeline and is byte-identical to the pre-kernel
monolith (held to committed goldens by
``tests/integration/test_golden_equivalence.py``).
"""

from repro.engine.kernel.context import EngineContext
from repro.engine.kernel.kernel import EngineKernel, default_stages
from repro.engine.kernel.stages import (
    ArrivalStage,
    AuditStage,
    ExpiryStage,
    FaultStage,
    RouteProbeStage,
    ShedDegradeStage,
    Stage,
    TickState,
    TuningStage,
)

__all__ = [
    "ArrivalStage",
    "AuditStage",
    "EngineContext",
    "EngineKernel",
    "ExpiryStage",
    "FaultStage",
    "RouteProbeStage",
    "ShedDegradeStage",
    "Stage",
    "TickState",
    "TuningStage",
    "default_stages",
]
