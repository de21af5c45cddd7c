"""The engine's shared run state and its cost-attribution plumbing.

An :class:`EngineContext` is everything a tick touches, gathered into one
explicit object instead of executor instance attributes: the query, the
per-stream states, the routing policy, the virtual clock, run statistics,
the backlog queue, the degrade switch, and the optional attachments (event
log, metrics registry).  Stages receive the context and nothing else —
there is no hidden executor state left for a stage to reach around.

The ``_spend`` cost-attribution invariant lives here **by construction**:
:meth:`EngineContext.spend` is the only place in the kernel that touches
``meter.spend``, and it attributes the identical float to the metrics
registry immediately after charging the clock — so the attributed grand
total equals ``meter.total_spent`` bit-for-bit whenever a registry is
attached (``tests/engine/test_kernel.py`` asserts no stage bypasses it).
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field

from repro.engine.metrics import MetricsRegistry
from repro.engine.query import Query
from repro.engine.resources import MemoryBreakdown, ResourceMeter
from repro.engine.router import Router
from repro.engine.stats import RunStats, SelectivityEstimator
from repro.engine.tuples import StreamTuple
from repro.storage.store import StateStore


_KIND_LABELS: dict[type, str] = {}


def index_kind_label(index: object) -> str:
    """A stable ``index_kind`` label: snake-cased class name sans ``Index``.

    ``BitAddressIndex → bit_address``, ``MultiHashIndex → multi_hash``,
    ``ScanIndex → scan`` — derived, so extension indexes label themselves.
    The regex runs once per index *type*; this sits on the per-probe
    attribution path, so repeat calls are a dict hit.
    """
    t = type(index)
    label = _KIND_LABELS.get(t)
    if label is None:
        name = t.__name__.removesuffix("Index") or t.__name__
        label = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
        _KIND_LABELS[t] = label
    return label


@dataclass
class EngineContext:
    """Every piece of state one engine run reads and writes."""

    query: Query
    stems: dict[str, StateStore]
    router: Router
    meter: ResourceMeter
    arrival_rates: dict[str, float]
    domain_bits: dict[str, int]
    config: object  # ExecutorConfig (kept loose to avoid an import cycle)
    estimator: SelectivityEstimator = field(default_factory=SelectivityEstimator)
    stats: RunStats = field(default_factory=RunStats)
    output_sink: object | None = None  # callable(list[JoinedTuple]) or None
    event_log: object | None = None  # repro.engine.tracing.EventLog or None
    degrade: bool = False  # shed and degrade under memory pressure
    metrics: MetricsRegistry | None = None
    queue: deque[StreamTuple] = field(default_factory=deque)

    def __post_init__(self) -> None:
        missing = set(self.query.stream_names) - set(self.stems)
        if missing:
            raise ValueError(f"no SteM configured for streams: {sorted(missing)}")
        self.n_streams = len(self.query.stream_names)

    # ------------------------------------------------------------------ #
    # cost plumbing

    def spend(
        self,
        cost: float,
        component: str,
        *,
        stream: str | None = None,
        index_kind: object | None = None,
        phase: str | None = None,
    ) -> None:
        """Charge the virtual clock and attribute the identical float.

        Every kernel charge goes through here: the meter and the metrics
        registry see the same value in the same order, which is what makes
        the attributed total equal ``meter.total_spent`` exactly.
        ``index_kind`` is the index whose work is charged: its label
        (:func:`index_kind_label`) is derived only when a registry is
        attached to read it.
        """
        self.meter.spend(cost)
        if self.metrics is not None:
            self.metrics.charge(
                cost,
                component,
                stream=stream,
                index_kind=None if index_kind is None else index_kind_label(index_kind),
                phase=phase,
            )

    def stem_cost(self, stem: StateStore) -> float:
        """One state's accumulated index cost on its accountant."""
        return stem.index.accountant.cost(self.meter.params)

    def stem_costs(self) -> dict[str, float]:
        """Current accumulated index cost per state (attribution snapshot)."""
        return {name: self.stem_cost(stem) for name, stem in self.stems.items()}

    def spend_index_deltas(
        self,
        costs: dict[str, float],
        names: Collection[str] | None = None,
        *,
        component: str,
        phase: str,
    ) -> None:
        """Charge each state in ``names`` (every state in ``costs`` when
        omitted) its marginal index cost since ``costs[name]``, in the
        states' own order, and write its current cost back to ``costs``.

        The aggregate spent equals the per-state deltas by construction, so
        nothing leaks; zero deltas are skipped (no series churn, and adding
        0.0 would not move the clock anyway) — which is also why a caller
        may leave out any state it knows it did not touch.  Until a state's
        accountant moves again, the cost written back is the exact float a
        fresh :meth:`stem_cost` would return.
        """
        stems = self.stems
        if names is None:
            names = costs
        # One state has no order to keep: no walk over every state.
        if len(names) != 1:
            names = [n for n in stems if n in names]
        for name in names:
            stem = stems[name]
            now = self.stem_cost(stem)
            delta = now - costs[name]
            costs[name] = now
            if delta:
                self.spend(delta, component, stream=name, index_kind=stem.index, phase=phase)

    # ------------------------------------------------------------------ #
    # memory accounting

    def memory_breakdown(self) -> MemoryBreakdown:
        params = self.meter.params
        payload = sum(stem.payload_bytes for stem in self.stems.values())
        index = sum(stem.index.memory_bytes for stem in self.stems.values())
        backlog = len(self.queue) * params.queue_item_bytes
        stat_entries = 0
        for stem in self.stems.values():
            assessor = getattr(stem.tuner, "assessor", None)
            if assessor is not None:
                stat_entries += assessor.entry_count
        return MemoryBreakdown(
            state_payload=payload,
            index_structures=index,
            backlog=backlog,
            statistics=stat_entries * params.stat_entry_bytes,
        )
