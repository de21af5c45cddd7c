"""The staged tick loop.

:class:`EngineKernel` owns exactly what no stage can: advancing the
virtual clock, fetching the tick's arrivals, running the stages in
order, stopping on death, and handing back the run's statistics at the
end.  Everything else — admission, expiry, routing, tuning, degradation,
auditing — is a :class:`~repro.engine.kernel.stages.Stage` in the
pipeline, so engines with different phase structures are assembled, not
subclassed.
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

        Exactly one iteration of :meth:`run`'s loop body: run every stage
        (stopping on death).  A caller that owns the loop stops stepping
        once ``tick.died`` and reads the run's statistics from
        ``ctx.stats``; the backlog at end of run or at death stays queued.
        """
        ctx = self.ctx
        ctx.meter.start_tick()
        tick = TickState(tick=t, incoming=incoming)
        for stage in self.stages:
            stage.run(ctx, tick)
            if tick.died:
                break
        return tick

    def run(self, duration: int, arrivals) -> RunStats:
        """Execute ``duration`` ticks; ``arrivals`` is ``tick -> list[StreamTuple]``.

        Returns the collected :class:`RunStats`; an out-of-memory death is
        recorded on the stats, not raised.
        """
        check_positive("duration", duration)
        for t in range(duration):
            if self.step(t, arrivals(t)).died:
                break
        return self.ctx.stats
