"""The AMR stream-processing substrate (CAPE/Eddy-style engine).

Built from scratch for this reproduction: stream tuples and schemas, SPJ
queries over sliding windows, STeM operators, an adaptive Eddy-style router
with ε-exploration, a cost-unit virtual clock with memory budgeting, and the
discrete-time execution loop.  See DESIGN.md §2.2 for how each piece maps to
the paper's experimental platform.
"""

from repro.engine.executor import AMRExecutor, ExecutorConfig
from repro.engine.metrics import (
    MetricsRegistry,
    RegistrySnapshot,
    Span,
    SpanRecord,
)
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import (
    MemoryBreakdown,
    MemoryBudgetExceeded,
    ResourceMeter,
)
from repro.engine.router import (
    ContentBasedRouter,
    FixedRouter,
    GreedyAdaptiveRouter,
    Router,
)
from repro.engine.stats import RunStats, SelectivityEstimator, ThroughputSample
from repro.engine.stream import StreamSchema
from repro.engine.tracing import EngineEvent, EventLog
from repro.engine.tuples import JoinedTuple, StreamTuple
from repro.engine.window import SlidingWindow

__all__ = [
    "AMRExecutor",
    "EngineEvent",
    "EventLog",
    "ExecutorConfig",
    "MetricsRegistry",
    "RegistrySnapshot",
    "Span",
    "SpanRecord",
    "ContentBasedRouter",
    "FixedRouter",
    "GreedyAdaptiveRouter",
    "JoinPredicate",
    "JoinedTuple",
    "MemoryBreakdown",
    "MemoryBudgetExceeded",
    "Query",
    "ResourceMeter",
    "Router",
    "RunStats",
    "SelectivityEstimator",
    "SlidingWindow",
    "StreamSchema",
    "StreamTuple",
    "ThroughputSample",
]
