"""The standard tick stages of the staged engine kernel.

Each stage is one phase of the discrete-time loop, implementing the
:class:`Stage` protocol: ``run(ctx, tick)`` over the shared
:class:`~repro.engine.kernel.context.EngineContext` and the per-tick
:class:`TickState` scratch.  The canonical order (assembled by
:func:`~repro.engine.kernel.kernel.default_stages`) reproduces the
monolithic executor exactly:

    arrivals → expiry → route/probe → faults → tuning → shed/degrade →
    audit

Stages communicate only through the context and the tick state — no stage
holds run state of its own, which is what makes pipelines recomposable:
drop ``FaultStage`` for a clean run, or insert a custom stage between any
two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.tuner import TuningContext
from repro.engine.kernel.context import EngineContext, index_kind_label
from repro.engine.metrics import Span
from repro.engine.resources import MemoryBreakdown, MemoryBudgetExceeded
from repro.engine.tuples import JoinedTuple, StreamTuple

#: Histogram boundaries for per-probe match counts.
MATCH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(slots=True)
class TickState:
    """Per-tick scratch shared along the stage pipeline."""

    tick: int
    duration: int  # the run's total tick count (for last-tick audits)
    incoming: list[StreamTuple] = field(default_factory=list)
    span: Span | None = None  # the open tick span (metrics only)
    audit_due: bool = False  # sample/shed/degrade/audit gate this tick
    breakdown: MemoryBreakdown | None = None  # ShedDegradeStage → AuditStage
    budget: int = 0  # effective (possibly squeezed) budget this tick
    died: bool = False  # set by AuditStage on a memory death

    @property
    def is_last(self) -> bool:
        return self.tick == self.duration - 1


@runtime_checkable
class Stage(Protocol):
    """One phase of the tick loop."""

    name: str

    def run(self, ctx: EngineContext, tick: TickState) -> None: ...


# --------------------------------------------------------------------- #
# shared tuning helpers (TuningStage and FaultStage both tune)


def tune_stem(ctx: EngineContext, stem, tick: int, *, forced: bool = False):
    """One state's tuning round, with stats and event bookkeeping."""
    context = TuningContext(
        lambda_d=ctx.arrival_rates.get(stem.stream, 1.0),
        window=float(ctx.query.window),
        horizon=float(ctx.config.assess_interval),
        domain_bits=ctx.domain_bits,
    )
    report = stem.tune(context)
    if report is not None:
        ctx.stats.tuning_rounds += 1
        if report.migrated:
            ctx.stats.migrations += 1
            if ctx.metrics is not None:
                ctx.metrics.counter("migrations_total", stream=stem.stream).inc()
        if ctx.event_log is not None:
            kind = "migration" if report.migrated else "tune"
            saving = report.projected_saving
            detail: dict[str, object] = dict(
                old=report.old_description,
                new=report.new_description,
                # NaN (the hash tuner estimates no C_D) would poison
                # event equality (nan != nan); record None instead.
                saving=round(saving, 1) if saving == saving else None,
            )
            if forced:
                detail["forced"] = True
            ctx.event_log.record(tick, kind, stem.stream, **detail)
    return report


def tune_round(
    ctx: EngineContext, tick: int, streams=None, *, forced: bool = False
) -> None:
    """Tune the given states (default: all), attributing per state.

    Each state's marginal tuning cost — assessment extraction, selection,
    and any migration — is charged to the ``tuner`` component with phase
    ``migration`` or ``assess``; the round and its per-state children
    become spans in the flight recorder.
    """
    m = ctx.metrics
    stems = (
        list(ctx.stems.values()) if streams is None else [ctx.stems[s] for s in streams]
    )
    round_span = (
        m.start_span("tuning_round", tick, forced=forced) if m is not None else None
    )
    for stem in stems:
        before = ctx.stem_cost(stem)
        kind = index_kind_label(stem.index)
        report = tune_stem(ctx, stem, tick, forced=forced)
        migrated = report is not None and report.migrated
        delta = ctx.stem_cost(stem) - before
        if delta:
            ctx.spend(
                delta,
                "tuner",
                stream=stem.stream,
                index_kind=kind,
                phase="migration" if migrated else "assess",
            )
        if m is not None:
            m.point_span(
                "tune",
                tick,
                round_span,
                stream=stem.stream,
                migrated=migrated,
                cost=delta,
            )
    if round_span is not None and m is not None:
        m.end_span(round_span, tick)


# --------------------------------------------------------------------- #
# the stages, in canonical order


class ArrivalStage:
    """Deliver the tick's arrivals: fault perturbation, predicate pushdown,
    state maintenance, and backlog admission.

    State maintenance is not deferrable — windows must reflect arrivals —
    so insertion is charged against the tick even when the tick is already
    over budget.  Only the *search-request* work (routing + probes) is
    queued; that is the backlog that piles up when an index scheme cannot
    keep up, exactly the paper's "backlog of active search requests".
    """

    name = "arrivals"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        injector = ctx.fault_injector
        items = tick.incoming
        if injector is not None:
            injector.begin_tick(tick.tick, ctx.event_log)
            items = injector.perturb_arrivals(tick.tick, items)
        m = ctx.metrics
        for item in items:
            if self._admit(ctx, item):
                ctx.queue.append(item)
                if m is not None:
                    ctx.live_spans[id(item)] = m.start_span(
                        "tuple", tick.tick, tick.span, stream=item.stream
                    )

    def _admit(self, ctx: EngineContext, item: StreamTuple) -> bool:
        """Insert one arriving tuple into its state (window maintenance).

        Returns False when a selection predicate filtered the tuple out
        (predicate pushdown): it enters neither the state nor the queue.
        """
        m = ctx.metrics
        filters = ctx.query.filters_for(item.stream)
        if filters:
            ctx.spend(
                len(filters) * ctx.meter.params.c_compare,
                "filter",
                stream=item.stream,
                phase="admit",
            )
            if not ctx.query.passes_filters(item.stream, item):
                ctx.stats.filtered += 1
                if m is not None:
                    m.counter("tuples_filtered_total", stream=item.stream).inc()
                return False
        stem = ctx.stems[item.stream]
        cost_before = ctx.stem_cost(stem)
        stem.insert(item, item.arrived_at)
        ctx.stats.source_tuples += 1
        ctx.spend(
            ctx.stem_cost(stem) - cost_before,
            "index",
            stream=item.stream,
            index_kind=index_kind_label(stem.index),
            phase="insert",
        )
        if m is not None:
            m.counter("tuples_admitted_total", stream=item.stream).inc()
        return True


class ExpiryStage:
    """Slide every state's window: expired tuples leave window and index."""

    name = "expiry"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        cost_before = ctx.stem_costs()
        for stem in ctx.stems.values():
            stem.expire(tick.tick)
        ctx.spend_index_deltas(cost_before, component="index", phase="expire")


def _probe_metrics(m, target: str, kind: str, assessor, n_matches: int) -> None:
    """One probe's metric series (registry attached)."""
    m.counter("probes_total", stream=target, index_kind=kind).inc()
    m.counter("matches_total", stream=target).inc(n_matches)
    m.histogram("probe_matches", buckets=MATCH_BUCKETS, stream=target).observe(n_matches)
    if assessor is not None:
        m.counter(
            "assessment_records_total", stream=target, method=type(assessor).__name__
        ).inc()


class RouteProbeStage:
    """Drain the backlog in arrival order while capacity lasts, one routed
    probe sequence per search request.

    A partial result is the tuple of its source tuples in join order — a
    reference per joined stream, nothing merged; a
    :class:`~repro.engine.tuples.JoinedTuple` is materialised per result
    only at emit, and only when an output sink is attached (the
    carry-references, materialise-at-emit operator of "Runtime-optimized
    Multi-way Stream Join Operator", PAPERS.md).

    Every partial at one hop probes the same target state with the same
    access pattern while that state is read-only, so the hop's probes form
    one column of value rows (the probe column of "Parallel Index-based
    Stream Join on a Multicore CPU", PAPERS.md):
    :meth:`StateStore.probe_batch` records the pattern as one run,
    aggregates the integer accountant increments and shares the search
    between equal rows, and the hop folds its match counts into the run
    statistics and the selectivity estimate once.  The engine reads the
    accountants, the assessor and the estimator only between requests, so
    every modeled quantity is what one probe at a time would give.  A hop
    that could reach ``max_fanout`` runs as a few columns, each too short
    to reach the cap before its last row, and stops inside the row that
    does — where a row-at-a-time hop stops.
    """

    name = "route_probe"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        while ctx.queue and not ctx.meter.exhausted:
            self._process(ctx, ctx.queue.popleft(), tick.tick)

    def _process(self, ctx: EngineContext, item: StreamTuple, tick: int) -> None:
        params = ctx.meter.params
        m = ctx.metrics
        route = ctx.router.choose_route(item.stream, ctx.estimator, item)
        observe_content = getattr(ctx.router, "observe_content", None)
        outputs = 0
        partials: list[tuple[StreamTuple, ...]] = [(item,)]
        joined: tuple[str, ...] = (item.stream,)
        # Only the states the route reaches can accrue index cost, so only
        # they are snapshotted (a no-match first hop reaches one).
        cost_before: dict[str, float] = {}
        for target in route:
            if not partials:
                break
            cost_before[target] = ctx.stem_cost(ctx.stems[target])
            partials = self._probe_hop(ctx, item, target, joined, partials, observe_content)
            joined += (target,)
        if partials and len(joined) == ctx.n_streams:
            outputs = len(partials)
            ctx.stats.outputs += outputs
            if ctx.output_sink is not None:
                ctx.output_sink([JoinedTuple(sources) for sources in partials])

        ctx.spend_index_deltas(cost_before, component="index", phase="probe")
        ctx.spend(params.c_route, "router", stream=item.stream, phase="decide")
        ctx.spend(outputs * params.c_output, "output", stream=item.stream, phase="emit")
        if ctx.latency is not None:
            ctx.latency.observe(tick - item.arrived_at)
        if m is not None:
            m.counter("outputs_total").inc(outputs)
            m.histogram("route_length", stream=item.stream).observe(len(route))
            span = ctx.live_spans.pop(id(item), None)
            if span is not None:
                m.end_span(span, tick, status="processed", outputs=outputs)

    def _probe_hop(
        self,
        ctx: EngineContext,
        item: StreamTuple,
        target: str,
        joined: tuple[str, ...],
        partials: list[tuple[StreamTuple, ...]],
        observe_content,
    ) -> list[tuple[StreamTuple, ...]]:
        """Probe ``target`` with every partial; returns the extended partials."""
        ap, sources = ctx.query.probe_row_spec(joined, target)
        stem = ctx.stems[target]
        # One value row per partial, aligned with ``ap.attributes``: each
        # value is read from the source tuple its predicate names, by that
        # tuple's position in the partial.
        getters = [(joined.index(stream), attr) for stream, attr in sources]
        if len(getters) == 1:
            ((i, a),) = getters
            rows = [(p[i][a],) for p in partials]
        elif len(getters) == 2:
            (i, a), (j, b) = getters
            rows = [(p[i][a], p[j][b]) for p in partials]
        elif len(getters) == 3:
            (i, a), (j, b), (k, c) = getters
            rows = [(p[i][a], p[j][b], p[k][c]) for p in partials]
        else:
            rows = [tuple([p[i][a] for i, a in getters]) for p in partials]
        max_fanout = ctx.config.max_fanout
        size = stem.size
        m = ctx.metrics
        if m is not None:
            kind = index_kind_label(stem.index)
            assessor = getattr(stem.tuner, "assessor", None)
        if observe_content is not None:
            bucket = ctx.router.bucket_for(item, item.stream, target)
        anchor_at, anchor_stream = item.arrived_at, item.stream
        # Equal rows share one outcome, and the ordering filter depends only
        # on the anchor: filter once per distinct outcome.  The entry keeps
        # the outcome alive, so its id stays unique for the hop.
        ordered: dict[int, tuple[object, list]] = {}
        counts: list[int] = []
        next_partials: list[tuple[StreamTuple, ...]] = []
        # A probe matches at most ``size`` tuples, so below this bound the
        # hop cannot reach the max_fanout cap: one column, uncopied.
        n = len(rows)
        capped = n * size >= max_fanout
        start, stop = 0, n
        while True:
            chunk, probing = rows, partials
            if capped:
                # In a chunk of ceil(room / size) rows only the last can
                # reach the cap: cutting the partials there is the
                # truncation a row-at-a-time hop makes, and no row past it
                # is probed.
                room = max_fanout - len(next_partials)
                stop = min(n, start + -(-room // size))
                chunk, probing = rows[start:stop], partials[start:stop]
            # (``probe_batch`` is looked up per call: a tracer may shadow it
            # on the state instance.)
            outcomes = stem.probe_batch(ap, chunk)
            for partial, outcome in zip(probing, outcomes):
                matches = outcome.matches
                if matches:
                    hit = ordered.get(id(outcome))
                    if hit is None:
                        # Timestamp ordering: the arriving tuple joins only
                        # with strictly-older tuples (stream name breaks
                        # same-tick ties), so each join result is produced
                        # exactly once — by its youngest member's probe
                        # sequence.  (Unrolled (at, stream) tuple comparison:
                        # no per-match tuple allocation.)
                        matches = [
                            m2
                            for m2 in matches
                            if m2.arrived_at < anchor_at
                            or (m2.arrived_at == anchor_at and m2.stream < anchor_stream)
                        ]
                        ordered[id(outcome)] = (outcome, matches)
                    else:
                        matches = hit[1]
                counts.append(len(matches))
                if observe_content is not None:
                    observe_content(target, ap.mask, bucket, len(matches))
                if m is not None:
                    _probe_metrics(m, target, kind, assessor, len(matches))
                if matches:
                    next_partials.extend([partial + (match,) for match in matches])
            if stop == n or len(next_partials) >= max_fanout:
                break
            start = stop
        if capped:
            del next_partials[max_fanout:]
        ctx.stats.probes += len(counts)
        ctx.stats.matches += sum(counts)
        ctx.estimator.observe_many(target, ap.mask, counts)
        return next_partials


class FaultStage:
    """Apply this tick's injected tuning-level perturbations (statistics
    corruption and forced out-of-schedule tuning rounds)."""

    name = "faults"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        injector = ctx.fault_injector
        if injector is None:
            return
        for stream in injector.corruptions(tick.tick):
            stem = ctx.stems[stream]
            assessor = getattr(stem.tuner, "assessor", None)
            if assessor is None:
                continue
            for ap in injector.corrupt_patterns(stem.jas):
                assessor.record(ap)
        forced = injector.forced_migrations(tick.tick)
        if forced:
            tune_round(ctx, tick.tick, forced, forced=True)


class TuningStage:
    """Run the scheduled tuning round when the assessment interval elapses."""

    name = "tuning"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        cfg = ctx.config
        t = tick.tick
        if t >= cfg.tune_warmup and t > 0 and t % cfg.assess_interval == 0:
            tune_round(ctx, t)


class ShedDegradeStage:
    """Graceful degradation under memory pressure: shed backlog oldest-first,
    then fall heaviest-first from index structures to full scans.

    Runs only on audit ticks and only with a
    :class:`~repro.engine.resources.DegradationPolicy` attached; without
    one the stage just measures (and the audit stage lets the run die).
    Leaves the measured breakdown and the effective (possibly
    fault-squeezed) budget on the tick state for the audit.
    """

    name = "shed_degrade"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        if not tick.audit_due:
            return
        breakdown = ctx.memory_breakdown()
        budget = ctx.meter.memory_budget
        if ctx.fault_injector is not None:
            budget = ctx.fault_injector.memory_budget(tick.tick, budget)
        policy = ctx.degradation
        if policy is not None:
            soft = int(policy.headroom * budget)
            if breakdown.total > soft:
                breakdown = self.shed_backlog(ctx, tick.tick, breakdown, soft)
            if policy.scan_fallback and breakdown.total > budget:
                breakdown = self.degrade_indexes(ctx, tick.tick, breakdown, budget)
        tick.breakdown = breakdown
        tick.budget = budget

    def shed_backlog(
        self, ctx: EngineContext, tick: int, breakdown: MemoryBreakdown, soft: int
    ) -> MemoryBreakdown:
        """Drop backlogged requests oldest-first until under ``soft`` bytes."""
        policy = ctx.degradation
        sheddable = len(ctx.queue) - policy.shed_floor
        if sheddable <= 0:
            return breakdown
        per = ctx.meter.params.queue_item_bytes
        excess = breakdown.total - soft
        n = min(sheddable, -(-excess // per))  # ceil division
        if n <= 0:
            return breakdown
        m = ctx.metrics
        for _ in range(n):
            item = ctx.queue.popleft()
            if m is not None:
                span = ctx.live_spans.pop(id(item), None)
                if span is not None:
                    m.end_span(span, tick, status="shed")
        ctx.stats.shed_tuples += n
        if ctx.latency is not None:
            ctx.latency.observe_shed(n)
        if m is not None:
            m.counter("shed_tuples_total").inc(n)
            m.point_span("shed", tick, count=n, freed=n * per)
        if ctx.event_log is not None:
            ctx.event_log.record(tick, "shed", None, count=n, freed=n * per)
        return ctx.memory_breakdown()

    def degrade_indexes(
        self, ctx: EngineContext, tick: int, breakdown: MemoryBreakdown, budget: int
    ) -> MemoryBreakdown:
        """Fall heaviest-first from index structures to full scans."""
        m = ctx.metrics
        by_weight = sorted(
            ctx.stems.values(), key=lambda s: s.index.memory_bytes, reverse=True
        )
        for stem in by_weight:
            if breakdown.total <= budget:
                break
            if stem.degraded or stem.index.memory_bytes <= 0:
                continue
            freed = stem.index.memory_bytes
            cost_before = ctx.stem_cost(stem)
            kind = index_kind_label(stem.index)
            moved = stem.degrade_to_scan()
            ctx.spend(
                ctx.stem_cost(stem) - cost_before,
                "index",
                stream=stem.stream,
                index_kind=kind,
                phase="degrade",
            )
            ctx.stats.degradations += 1
            if m is not None:
                m.counter("degradations_total", stream=stem.stream).inc()
                m.point_span("degrade", tick, stream=stem.stream, freed=freed, moved=moved)
            if ctx.event_log is not None:
                ctx.event_log.record(
                    tick, "degrade", stem.stream, to="scan", freed=freed, moved=moved
                )
            breakdown = ctx.memory_breakdown()
        return breakdown


class AuditStage:
    """Sample throughput, refresh gauges, and audit memory against the
    budget; an over-budget audit records a death (never raises)."""

    name = "audit"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        if not tick.audit_due:
            return
        breakdown = tick.breakdown
        if breakdown is None:  # a pipeline without ShedDegradeStage
            breakdown = ctx.memory_breakdown()
            tick.budget = ctx.meter.memory_budget
            if ctx.fault_injector is not None:
                tick.budget = ctx.fault_injector.memory_budget(tick.tick, tick.budget)
        t = tick.tick
        ctx.stats.sample(t, ctx.meter.total_spent, breakdown.total, len(ctx.queue))
        if ctx.metrics is not None:
            self._sample_metrics(ctx, breakdown)
        try:
            ctx.meter.check_memory(breakdown, t, budget=tick.budget)
        except MemoryBudgetExceeded as exc:
            ctx.stats.died_at = t
            ctx.stats.death_reason = str(exc)
            if ctx.metrics is not None:
                ctx.metrics.counter("deaths_total").inc()
                ctx.metrics.point_span("death", t, used=exc.used, budget=exc.budget)
            if ctx.event_log is not None:
                ctx.event_log.record(t, "death", None, used=exc.used, budget=exc.budget)
            tick.died = True

    def _sample_metrics(self, ctx: EngineContext, breakdown: MemoryBreakdown) -> None:
        """Refresh sampled gauges (memory sections, backlog, index ops)."""
        m = ctx.metrics
        assert m is not None
        m.gauge("backlog").set(len(ctx.queue))
        sections = {
            "payload": breakdown.state_payload,
            "index": breakdown.index_structures,
            "backlog": breakdown.backlog,
            "statistics": breakdown.statistics,
        }
        for section, used in sections.items():
            m.gauge("memory_bytes", section=section).set(used)
        for name, stem in ctx.stems.items():
            acct = stem.index.accountant
            for op in (
                "hashes",
                "comparisons",
                "buckets_visited",
                "tuples_examined",
                "inserts",
                "deletes",
                "moves",
            ):
                m.gauge("index_ops", stream=name, op=op).set(getattr(acct, op))
            assessor = getattr(stem.tuner, "assessor", None)
            if assessor is not None:
                m.gauge(
                    "assessment_entries", stream=name, method=type(assessor).__name__
                ).set(assessor.entry_count)
