"""The route/probe stage at a fixed probe-column chunk width.

:class:`~repro.engine.kernel.stages.RouteProbeStage` executes every route
hop as one same-pattern probe column; that is the default engine.  What is
left of the former opt-in batch plane is the *width*: ``--batch-size N``
(``batch_size=N``) splits a hop's column into ``StateStore.probe_batch``
calls of at most ``N`` rows instead of one call per hop.  Runs are
bit-identical at every width — same join outputs, same ``cost_total``,
same event timeline, same metrics snapshot — which
``tests/integration/test_batch_differential.py`` holds across every index
backend, width, and mid-migration dual-structure drain.
"""

from __future__ import annotations

from repro.engine.kernel.kernel import stages_around
from repro.engine.kernel.scheduler import Scheduler
from repro.engine.kernel.stages import RouteProbeStage, Stage, check_batch_size

#: Default number of probe rows per chunked index call.
DEFAULT_BATCH_SIZE = 64


class BatchRouteProbeStage(RouteProbeStage):
    """The route/probe stage with an explicit chunk width (never ``None``)."""

    def __init__(
        self,
        scheduler: Scheduler | str | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        check_batch_size(batch_size)
        super().__init__(scheduler, batch_size)


def batched_stages(
    scheduler: Scheduler | str | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[Stage, ...]:
    """The canonical pipeline with hop columns chunked at ``batch_size``."""
    return stages_around(BatchRouteProbeStage(scheduler, batch_size))
