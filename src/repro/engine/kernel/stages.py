"""The standard tick stages of the staged engine kernel.

Each stage is one phase of the discrete-time loop, implementing the
:class:`Stage` protocol: ``run(ctx, tick)`` over the shared
:class:`~repro.engine.kernel.context.EngineContext` and the per-tick
:class:`TickState` scratch.  The canonical order (assembled by
:func:`~repro.engine.kernel.kernel.default_stages`) reproduces the
monolithic executor exactly:

    arrivals → expiry → route/probe → tuning → shed/degrade → audit

Stages communicate only through the context and the tick state — no stage
holds run state of its own, which is what makes pipelines recomposable:
drop ``TuningStage`` for a frozen index, or insert a custom stage between
any two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.tuner import TuningContext
from repro.engine.kernel.context import EngineContext
from repro.engine.metrics import Span
from repro.engine.resources import (
    HEADROOM,
    SHED_FLOOR,
    MemoryBreakdown,
    MemoryBudgetExceeded,
)
from repro.engine.tuples import JoinedTuple, StreamTuple
from repro.utils.bitops import memoize_int_hashes


@dataclass(slots=True)
class TickState:
    """Per-tick scratch shared along the stage pipeline."""

    tick: int
    incoming: list[StreamTuple] = field(default_factory=list)
    span: Span | None = None  # the open tick span (metrics only)
    breakdown: MemoryBreakdown | None = None  # ShedDegradeStage → AuditStage
    died: bool = False  # set by AuditStage on a memory death


@runtime_checkable
class Stage(Protocol):
    """One phase of the tick loop."""

    name: str

    def run(self, ctx: EngineContext, tick: TickState) -> None: ...


# --------------------------------------------------------------------- #
# the tuning round (TuningStage runs it; a caller that steps the kernel
# may force one between two steps)


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
    ``migration`` or ``assess``; the round is one ``tuning_round`` span and
    each state's outcome one ``tune`` / ``migration`` event.
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
        index = stem.index
        report = tune_stem(ctx, stem, tick, forced=forced)
        migrated = report is not None and report.migrated
        delta = ctx.stem_cost(stem) - before
        if delta:
            ctx.spend(
                delta,
                "tuner",
                stream=stem.stream,
                index_kind=index,
                phase="migration" if migrated else "assess",
            )
    if round_span is not None and m is not None:
        m.end_span(round_span, tick)


# --------------------------------------------------------------------- #
# the stages, in canonical order


class ArrivalStage:
    """Deliver the tick's arrivals: predicate pushdown, state maintenance,
    and backlog admission.

    State maintenance is not deferrable — windows must reflect arrivals —
    so insertion is charged against the tick even when the tick is already
    over budget.  Only the *search-request* work (routing + probes) is
    queued; that is the backlog that piles up when an index scheme cannot
    keep up, exactly the paper's "backlog of active search requests".

    The tick's join values bound for a state whose index hashes them are
    hashed first, in one vector pass over the arrivals (after "Parallel
    Index-based Stream Join on a Multicore CPU", PAPERS.md, which batches
    an index's per-tuple work over one step's arrivals), so each insert and
    first-hop probe reads its hashes from the memo.
    """

    name = "arrivals"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        m = ctx.metrics
        incoming = tick.incoming
        if incoming:
            memoize_int_hashes(_join_values(ctx, incoming))
        # State -> its index cost after its last admission: between two
        # admissions only an insert moves an accountant, so that float is
        # the next admission's "before", bit for bit.
        carried: dict[str, float] = {}
        for item in incoming:
            if self._admit(ctx, item, carried):
                ctx.queue.append(item)
                if m is not None:
                    ctx.live_spans[id(item)] = m.start_span(
                        "tuple", tick.tick, tick.span, stream=item.stream
                    )

    def _admit(
        self, ctx: EngineContext, item: StreamTuple, carried: dict[str, float]
    ) -> bool:
        """Insert one arriving tuple into its state (window maintenance).

        Returns False when a selection predicate filtered the tuple out
        (predicate pushdown): it enters neither the state nor the queue.
        """
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
                return False
        stream = item.stream
        stem = ctx.stems[stream]
        before = carried.get(stream)
        if before is None:
            before = ctx.stem_cost(stem)
        stem.insert(item, item.arrived_at)
        ctx.stats.source_tuples += 1
        now = carried[stream] = ctx.stem_cost(stem)
        ctx.spend(now - before, "index", stream=stream, index_kind=stem.index, phase="insert")
        return True


def _join_values(ctx: EngineContext, items: list[StreamTuple]) -> list[object]:
    """Every JAS value of ``items`` bound for a state whose index hashes
    values (``StateIndex.hashes_values``), read until a tuple lacks one
    (its admission then raises the ``KeyError``)."""
    names = {
        stream: stem.index.jas.names
        for stream, stem in ctx.stems.items()
        if stem.index.hashes_values
    }
    values: list[object] = []
    if not names:
        return values
    append = values.append
    try:
        for item in items:
            for name in names.get(item.stream, ()):
                append(item[name])
    except KeyError:
        pass
    return values


class ExpiryStage:
    """Slide every state's window: expired tuples leave window and index."""

    name = "expiry"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        cost_before = ctx.stem_costs()
        for stem in ctx.stems.values():
            stem.expire(tick.tick)
        ctx.spend_index_deltas(cost_before, component="index", phase="expire")


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
        # State -> its index cost after the last request that probed it.
        # Between two requests only this stage's probes move an accountant,
        # and a cost is a pure function of the counters, so that float is
        # the next request's "before", bit for bit.
        carried: dict[str, float] = {}
        while ctx.queue and not ctx.meter.exhausted:
            self._process(ctx, ctx.queue.popleft(), tick.tick, carried)

    def _process(
        self, ctx: EngineContext, item: StreamTuple, tick: int, carried: dict[str, float]
    ) -> None:
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
            before = carried.get(target)
            cost_before[target] = before if before is not None else ctx.stem_cost(ctx.stems[target])
            partials = self._probe_hop(ctx, item, target, joined, partials, observe_content)
            joined += (target,)
        if partials and len(joined) == ctx.n_streams:
            outputs = len(partials)
            ctx.stats.outputs += outputs
            if ctx.output_sink is not None:
                ctx.output_sink([JoinedTuple(sources) for sources in partials])

        ctx.spend_index_deltas(cost_before, component="index", phase="probe", after=carried)
        ctx.spend(params.c_route, "router", stream=item.stream, phase="decide")
        if outputs or m is not None:  # a zero charge moves no clock, only a series
            ctx.spend(outputs * params.c_output, "output", stream=item.stream, phase="emit")
        if m is not None:
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
        # One value row per partial, aligned with ``ap.attributes``: each
        # value is read from the source tuple its predicate names.
        ap, build_rows = ctx.query.hop_plan(joined, target)
        stem = ctx.stems[target]
        rows = build_rows(partials)
        max_fanout = ctx.config.max_fanout
        size = stem.size
        if observe_content is not None:
            bucket = ctx.router.bucket_for(item, item.stream, target)
        # Timestamp ordering: the arriving tuple joins only with tuples
        # before it in (arrived_at, stream) order, so each join result is
        # produced exactly once — by its youngest member's probe sequence.
        # Every match is a tuple of ``target``'s state, so the stream
        # tie-break is one constant per hop: a same-tick match passes
        # exactly when ``target`` sorts before the anchor's stream.
        anchor_at = item.arrived_at
        same_tick_passes = target < item.stream
        # Equal rows share one outcome, and the ordering filter depends only
        # on the anchor: filter once per distinct outcome.  The entry keeps
        # the outcome alive, so its id stays unique for the hop.
        ordered: dict[int, tuple[object, list]] = {}
        counts: list[int] = []
        next_partials: list[tuple[StreamTuple, ...]] = []
        # A loop, not a comprehension (a call in CPython 3.11): most rows
        # match once or twice.
        append = next_partials.append
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
                        if same_tick_passes:
                            matches = [m2 for m2 in matches if m2.arrived_at <= anchor_at]
                        else:
                            matches = [m2 for m2 in matches if m2.arrived_at < anchor_at]
                        ordered[id(outcome)] = (outcome, matches)
                    else:
                        matches = hit[1]
                counts.append(len(matches))
                if observe_content is not None:
                    observe_content(target, ap.mask, bucket, len(matches))
                for match in matches:
                    append(partial + (match,))
            if stop == n or len(next_partials) >= max_fanout:
                break
            start = stop
        if capped:
            del next_partials[max_fanout:]
        ctx.stats.probes += len(counts)
        ctx.stats.matches += sum(counts)
        ctx.estimator.observe_many(target, ap.mask, counts)
        return next_partials


class TuningStage:
    """Run the scheduled tuning round when the assessment interval elapses."""

    name = "tuning"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        cfg = ctx.config
        t = tick.tick
        if t > 0 and t % cfg.assess_interval == 0:
            tune_round(ctx, t)


class ShedDegradeStage:
    """Graceful degradation under memory pressure: shed backlog oldest-first,
    then fall heaviest-first from index structures to full scans.

    Remedies only when the run degrades (``ctx.degrade``, ``--degrade``);
    otherwise the stage just measures (and the audit stage lets the run
    die).  When the audited footprint crosses
    :data:`~repro.engine.resources.HEADROOM` of the budget, the stage

    1. **sheds** backlogged search requests oldest-first (never the newest
       :data:`~repro.engine.resources.SHED_FLOOR`) until the footprint is
       back under headroom — the results those requests would have produced
       are lost, which is load shedding's explicit bargain;
    2. **degrades**, if still over the *hard* budget, the heaviest index
       structures to an unindexed full scan (``ScanIndex``), releasing
       their memory at the price of slower probes.

    Only when both remedies leave the run over budget does it die — still
    recorded, never raised.  Every remedy is a ``shed`` / ``degrade``
    event.  Leaves the measured breakdown on the tick state for the audit.
    """

    name = "shed_degrade"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        breakdown = ctx.memory_breakdown()
        budget = ctx.meter.memory_budget
        if ctx.degrade:
            soft = int(HEADROOM * budget)
            if breakdown.total > soft:
                breakdown = self.shed_backlog(ctx, tick.tick, breakdown, soft)
            if breakdown.total > budget:
                breakdown = self.degrade_indexes(ctx, tick.tick, breakdown, budget)
        tick.breakdown = breakdown

    def shed_backlog(
        self, ctx: EngineContext, tick: int, breakdown: MemoryBreakdown, soft: int
    ) -> MemoryBreakdown:
        """Drop backlogged requests oldest-first until under ``soft`` bytes."""
        sheddable = len(ctx.queue) - SHED_FLOOR
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
        if ctx.event_log is not None:
            ctx.event_log.record(tick, "shed", None, count=n, freed=n * per)
        return ctx.memory_breakdown()

    def degrade_indexes(
        self, ctx: EngineContext, tick: int, breakdown: MemoryBreakdown, budget: int
    ) -> MemoryBreakdown:
        """Fall heaviest-first from index structures to full scans."""
        by_weight = sorted(
            ctx.stems.values(), key=lambda s: s.index.memory_bytes, reverse=True
        )
        for stem in by_weight:
            if breakdown.total <= budget:
                break
            if stem.degraded or stem.index.memory_bytes <= 0:
                continue
            index = stem.index  # the label is the pre-degrade index's
            freed = index.memory_bytes
            cost_before = ctx.stem_cost(stem)
            moved = stem.degrade_to_scan()
            ctx.spend(
                ctx.stem_cost(stem) - cost_before,
                "index",
                stream=stem.stream,
                index_kind=index,
                phase="degrade",
            )
            ctx.stats.degradations += 1
            if ctx.event_log is not None:
                ctx.event_log.record(
                    tick, "degrade", stem.stream, to="scan", freed=freed, moved=moved
                )
            breakdown = ctx.memory_breakdown()
        return breakdown


class AuditStage:
    """Sample throughput and audit memory against the budget; an
    over-budget audit records a death (never raises)."""

    name = "audit"

    def run(self, ctx: EngineContext, tick: TickState) -> None:
        breakdown = tick.breakdown
        if breakdown is None:  # a pipeline without ShedDegradeStage
            breakdown = ctx.memory_breakdown()
        t = tick.tick
        ctx.stats.sample(t, ctx.meter.total_spent, breakdown.total, len(ctx.queue))
        try:
            ctx.meter.check_memory(breakdown, t)
        except MemoryBudgetExceeded as exc:
            ctx.stats.died_at = t
            ctx.stats.death_reason = str(exc)
            if ctx.event_log is not None:
                ctx.event_log.record(t, "death", None, used=exc.used, budget=exc.budget)
            tick.died = True
