"""The staged tick loop.

:class:`EngineKernel` owns exactly what no stage can: advancing the
virtual clock, opening/closing the per-tick metrics span, fetching the
tick's arrivals, running the stages in order, stopping on death, and the
end-of-run cleanup (closing leftover tuple spans).  Everything else —
admission, expiry, routing, tuning, degradation, auditing — is a
:class:`~repro.engine.kernel.stages.Stage` in the pipeline, so engines
with different phase structures are assembled, not subclassed.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.kernel.context import EngineContext
from repro.engine.kernel.stages import (
    ArrivalStage,
    AuditStage,
    ExpiryStage,
    RouteProbeStage,
    ShedDegradeStage,
    Stage,
    TickState,
    TuningStage,
)
from repro.engine.stats import RunStats
from repro.utils.validation import check_positive


def default_stages() -> tuple[Stage, ...]:
    """The canonical pipeline, in the monolithic executor's tick order:
    arrivals → expiry → route/probe → tuning → shed/degrade → audit.

    An accepted migration is a stop-the-world ``reconfigure()`` inside the
    tuning stage.
    """
    return (
        ArrivalStage(),
        ExpiryStage(),
        RouteProbeStage(),
        TuningStage(),
        ShedDegradeStage(),
        AuditStage(),
    )


class EngineKernel:
    """Advance an :class:`EngineContext` through a stage pipeline.

    Parameters
    ----------
    ctx:
        The run's shared state.
    stages:
        The pipeline, in execution order.  Defaults to
        :func:`default_stages`.
    """

    def __init__(
        self,
        ctx: EngineContext,
        stages: Sequence[Stage] | None = None,
    ) -> None:
        self.ctx = ctx
        self.stages: tuple[Stage, ...] = (
            tuple(stages) if stages is not None else default_stages()
        )

    def step(self, t: int, incoming) -> TickState:
        """Advance the engine one tick and return its :class:`TickState`.

        Exactly one iteration of :meth:`run`'s loop body: open the tick
        span, run every stage (stopping on death), close the span.  A
        caller that owns the loop stops stepping once ``tick.died`` and
        calls :meth:`finish` exactly once at the end.
        """
        ctx = self.ctx
        m = ctx.metrics
        ctx.meter.start_tick()
        tick = TickState(tick=t)
        spent_before = ctx.meter.total_spent
        if m is not None:
            tick.span = m.start_span("tick", t)
        tick.incoming = incoming
        for stage in self.stages:
            stage.run(ctx, tick)
            if tick.died:
                break
        if m is not None and tick.span is not None:
            tick_cost = ctx.meter.total_spent - spent_before
            m.end_span(tick.span, t, cost=round(tick_cost, 3), backlog=len(ctx.queue))
        return tick

    def finish(self, last_tick: int) -> RunStats:
        """End-of-run cleanup; returns the collected :class:`RunStats`.

        The backlog at end of run or at death is still queued: its tuple
        spans close so the retained spans' last ticks reconstruct.  Call
        exactly once after the final :meth:`step` (``last_tick`` is that
        step's tick).
        """
        ctx = self.ctx
        m = ctx.metrics
        if m is not None:
            for item in ctx.queue:
                span = ctx.live_spans.pop(id(item), None)
                if span is not None:
                    m.end_span(span, last_tick, status="backlog")
            ctx.live_spans.clear()
        return ctx.stats

    def run(self, duration: int, arrivals) -> RunStats:
        """Execute ``duration`` ticks; ``arrivals`` is ``tick -> list[StreamTuple]``.

        Returns the collected :class:`RunStats`; an out-of-memory death is
        recorded on the stats, not raised.
        """
        check_positive("duration", duration)
        last_tick = 0
        for t in range(duration):
            last_tick = t
            tick = self.step(t, arrivals(t))
            if tick.died:
                break
        return self.finish(last_tick)
