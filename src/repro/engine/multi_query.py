"""Multiple SPJ queries over shared states (Section II's generalization).

The paper presents AMRI for a single SPJ query but notes "our proposed
logic equally applies to multiple SPJ queries".  This module implements
that: a :class:`QuerySet` validates a collection of queries over shared
streams and derives, per stream, the **union** join-attribute set its one
shared state must serve; :class:`MultiQueryExecutor` runs all queries over
the same arrivals, each with its own router and output counter, probing
the shared STeMs.

The effect on indexing is exactly why AMRI exists at scale: every query
contributes its own probe shapes over the shared state, so the state's
access-pattern workload is a *mixture* — richer and more drift-prone than
any single query's — and the per-state tuner serves them all from one
bit-address index.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.tuner import TuningContext
from repro.engine.executor import ExecutorConfig
from repro.engine.query import Query
from repro.engine.resources import MemoryBreakdown, MemoryBudgetExceeded, ResourceMeter
from repro.engine.router import Router
from repro.engine.stats import RunStats, SelectivityEstimator
from repro.storage.store import StateStore
from repro.engine.tuples import StreamTuple


class QuerySet:
    """A validated collection of SPJ queries over shared streams."""

    def __init__(self, queries: Sequence[Query]) -> None:
        if not queries:
            raise ValueError("a query set needs at least one query")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate query names: {names}")
        self.queries = tuple(queries)

        # Streams may appear in several queries; their declared attribute
        # sets must agree where they overlap.
        schemas: dict[str, set[str]] = {}
        for q in self.queries:
            for s in q.streams:
                schemas.setdefault(s.name, set()).update(s.attributes)
        self._stream_attrs = {name: tuple(sorted(attrs)) for name, attrs in schemas.items()}

        self._union_jas: dict[str, JoinAttributeSet] = {}
        for stream in self._stream_attrs:
            attrs: set[str] = set()
            for q in self.queries:
                if stream in q.stream_names:
                    attrs.update(q.jas_for(stream).names)
            self._union_jas[stream] = JoinAttributeSet(sorted(attrs))

    @property
    def stream_names(self) -> tuple[str, ...]:
        """Every stream any query reads, sorted."""
        return tuple(sorted(self._stream_attrs))

    def queries_for(self, stream: str) -> tuple[Query, ...]:
        """The queries whose FROM clause includes ``stream``."""
        return tuple(q for q in self.queries if stream in q.stream_names)

    def union_jas(self, stream: str) -> JoinAttributeSet:
        """The shared state's JAS: union of every query's JAS for ``stream``.

        This is the attribute space the state's single AMRI index (and its
        assessment) ranges over.
        """
        return self._union_jas[stream]

    def max_window(self, stream: str) -> int:
        """The state keeps tuples for the longest window over its queries."""
        return max(q.window for q in self.queries_for(stream))

    def lift_pattern(self, stream: str, ap: AccessPattern) -> AccessPattern:
        """Re-express a per-query pattern over the shared state's union JAS."""
        return AccessPattern.from_attributes(self._union_jas[stream], ap.attributes)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


class MultiQueryExecutor:
    """Runs every query of a :class:`QuerySet` over shared states.

    Identical tick semantics to :class:`~repro.engine.executor.AMRExecutor`
    (admit-on-arrival, queued search-request work, capacity-bound draining,
    memory audit), except each arriving tuple spawns one routed probe
    sequence *per query* that reads its stream, and outputs are counted per
    query.

    Parameters
    ----------
    query_set:
        The queries to run.
    stems:
        One shared :class:`~repro.storage.store.StateStore` per stream, built
        over the union JAS.
    routers:
        One :class:`Router` per query name.
    """

    def __init__(
        self,
        query_set: QuerySet,
        stems: dict[str, StateStore],
        routers: dict[str, Router],
        meter: ResourceMeter,
        *,
        arrival_rates: dict[str, float],
        domain_bits: dict[str, int] | None = None,
        config: ExecutorConfig | None = None,
    ) -> None:
        missing = set(query_set.stream_names) - set(stems)
        if missing:
            raise ValueError(f"no SteM configured for streams: {sorted(missing)}")
        for stream in query_set.stream_names:
            if stems[stream].jas != query_set.union_jas(stream):
                raise ValueError(
                    f"SteM for {stream!r} must range over the union JAS "
                    f"{query_set.union_jas(stream)!r}"
                )
        missing_routers = {q.name for q in query_set} - set(routers)
        if missing_routers:
            raise ValueError(f"no router configured for queries: {sorted(missing_routers)}")
        self.query_set = query_set
        self.stems = stems
        self.routers = routers
        self.meter = meter
        self.arrival_rates = dict(arrival_rates)
        self.domain_bits = dict(domain_bits or {})
        self.config = config if config is not None else ExecutorConfig()

        self.estimators = {q.name: SelectivityEstimator() for q in query_set}
        self.stats = RunStats()
        self.per_query_outputs: dict[str, int] = {q.name: 0 for q in query_set}
        self._queue: deque[StreamTuple] = deque()

    # ------------------------------------------------------------------ #

    def _total_index_cost(self) -> float:
        params = self.meter.params
        return sum(stem.index.accountant.cost(params) for stem in self.stems.values())

    def _memory_breakdown(self) -> MemoryBreakdown:
        params = self.meter.params
        payload = sum(stem.payload_bytes for stem in self.stems.values())
        index = sum(stem.index.memory_bytes for stem in self.stems.values())
        backlog = len(self._queue) * params.queue_item_bytes
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

    @property
    def backlog(self) -> int:
        """Queued-but-unprocessed search requests."""
        return len(self._queue)

    def _admit_tuple(self, item: StreamTuple) -> None:
        cost_before = self._total_index_cost()
        self.stems[item.stream].insert(item, item.arrived_at)
        self.stats.source_tuples += 1
        self.meter.spend(self._total_index_cost() - cost_before)

    def _run_query_probes(self, query: Query, item: StreamTuple) -> int:
        """Route ``item`` through ``query``'s remaining states; returns outputs."""
        if not query.passes_filters(item.stream, item):
            return 0
        estimator = self.estimators[query.name]
        route = self.routers[query.name].choose_route(item.stream, estimator, item)
        # Partials are source tuples in join order, as in the kernel.
        partials: list[tuple[StreamTuple, ...]] = [(item,)]
        joined: tuple[str, ...] = (item.stream,)
        anchor = (item.arrived_at, item.stream)
        for target in route:
            if not partials:
                break
            ap, sources = query.probe_row_spec(joined, target)
            getters = [
                (name, joined.index(stream), attr)
                for name, (stream, attr) in zip(ap.attributes, sources)
            ]
            stem = self.stems[target]
            lifted = self.query_set.lift_pattern(target, ap)
            next_partials: list[tuple[StreamTuple, ...]] = []
            for partial in partials:
                values = {name: partial[pos][attr] for name, pos, attr in getters}
                outcome = stem.probe(lifted, values)
                self.stats.probes += 1
                matches = [
                    m
                    for m in outcome.matches
                    if (m.arrived_at, m.stream) < anchor
                    and m.arrived_at + query.window > item.arrived_at
                    and query.passes_filters(m.stream, m)
                ]
                self.stats.matches += len(matches)
                estimator.observe(target, lifted.mask, len(matches))
                for match in matches:
                    next_partials.append(partial + (match,))
                    if len(next_partials) >= self.config.max_fanout:
                        break
                if len(next_partials) >= self.config.max_fanout:
                    break
            joined += (target,)
            partials = next_partials
        if partials and len(joined) == len(query.stream_names):
            return len(partials)
        return 0

    def _process_tuple(self, item: StreamTuple) -> None:
        params = self.meter.params
        cost_before = self._total_index_cost()
        outputs = 0
        for query in self.query_set.queries_for(item.stream):
            produced = self._run_query_probes(query, item)
            if produced:
                self.per_query_outputs[query.name] += produced
                outputs += produced
        self.stats.outputs += outputs
        index_cost = self._total_index_cost() - cost_before
        n_queries = len(self.query_set.queries_for(item.stream))
        self.meter.spend(index_cost + n_queries * params.c_route + outputs * params.c_output)

    def _expire_all(self, now: int) -> None:
        cost_before = self._total_index_cost()
        for stem in self.stems.values():
            stem.expire(now)
        self.meter.spend(self._total_index_cost() - cost_before)

    def _tune_all(self) -> None:
        cost_before = self._total_index_cost()
        for stem in self.stems.values():
            context = TuningContext(
                lambda_d=self.arrival_rates.get(stem.stream, 1.0),
                window=float(getattr(stem.window, "length", len(stem.window) or 1)),
                horizon=float(self.config.assess_interval),
                domain_bits=self.domain_bits,
            )
            report = stem.tune(context)
            if report is not None:
                self.stats.tuning_rounds += 1
                if report.migrated:
                    self.stats.migrations += 1
        self.meter.spend(self._total_index_cost() - cost_before)

    def run(self, duration: int, arrivals) -> RunStats:
        """Execute ``duration`` ticks; see :meth:`AMRExecutor.run`."""
        cfg = self.config
        for tick in range(duration):
            self.meter.start_tick()
            for item in arrivals(tick):
                self._admit_tuple(item)
                self._queue.append(item)
            self._expire_all(tick)
            while self._queue and not self.meter.exhausted:
                self._process_tuple(self._queue.popleft())
            if tick >= cfg.tune_warmup and tick > 0 and tick % cfg.assess_interval == 0:
                self._tune_all()
            if tick % cfg.sample_interval == 0 or tick == duration - 1:
                breakdown = self._memory_breakdown()
                self.stats.sample(tick, self.meter.total_spent, breakdown.total, len(self._queue))
                try:
                    self.meter.check_memory(breakdown, tick)
                except MemoryBudgetExceeded as exc:
                    self.stats.died_at = tick
                    self.stats.death_reason = str(exc)
                    break
        return self.stats
