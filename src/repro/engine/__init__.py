"""The AMR stream-processing substrate (CAPE/Eddy-style engine).

Built from scratch for this reproduction: stream tuples and schemas, SPJ
queries over sliding windows, STeM operators, an adaptive Eddy-style router
with ε-exploration, a cost-unit virtual clock with memory budgeting, and the
discrete-time execution loop.  See DESIGN.md §2.2 for how each piece maps to
the paper's experimental platform.
"""

from repro.engine.executor import AMRExecutor, ExecutorConfig
from repro.engine.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    InvariantViolation,
    resolve_fault_plan,
)
from repro.engine.metrics import (
    FlightRecorder,
    MetricsRegistry,
    RegistrySnapshot,
    Span,
    SpanRecord,
)
from repro.engine.latency import LatencySnapshot, LatencyTracker
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import (
    DegradationPolicy,
    MemoryBreakdown,
    MemoryBudgetExceeded,
    ResourceMeter,
)
from repro.engine.router import (
    ContentBasedRouter,
    FixedRouter,
    GreedyAdaptiveRouter,
    LotteryRouter,
    Router,
)
from repro.engine.stats import RunStats, SelectivityEstimator, ThroughputSample
from repro.engine.stream import StreamSchema
from repro.engine.tracing import EngineEvent, EventLog
from repro.engine.tuples import JoinedTuple, StreamTuple
from repro.engine.window import CountWindow, SlidingWindow

__all__ = [
    "AMRExecutor",
    "DegradationPolicy",
    "EngineEvent",
    "EventLog",
    "ExecutorConfig",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "InvariantViolation",
    "resolve_fault_plan",
    "FlightRecorder",
    "MetricsRegistry",
    "RegistrySnapshot",
    "Span",
    "SpanRecord",
    "LatencySnapshot",
    "LatencyTracker",
    "ContentBasedRouter",
    "FixedRouter",
    "GreedyAdaptiveRouter",
    "LotteryRouter",
    "JoinPredicate",
    "JoinedTuple",
    "MemoryBreakdown",
    "MemoryBudgetExceeded",
    "Query",
    "ResourceMeter",
    "Router",
    "RunStats",
    "SelectivityEstimator",
    "CountWindow",
    "SlidingWindow",
    "StreamSchema",
    "StreamTuple",
    "ThroughputSample",
]
