"""The intra-partition parallel probe plane: pooled same-pattern probe
columns over epoch-tagged read-only index snapshots.

``PartitionedEngine`` parallelizes *across* hash partitions; this stage
parallelizes *inside* one: the hop's same-pattern probe column fans out,
in chunks, to a persistent worker pool, each worker probing a
:class:`~repro.storage.snapshot.StoreSnapshot` — a frozen,
epoch-tagged view of the store's dual structures (active index plus any
draining migration structure, captured by reference).  The multicore
stream-join literature (PAPERS.md) calls this the dominant win: many
concurrent readers over one shared window index.

Determinism and bit-identity come from three properties, none of them
accidental:

- **Workers never touch shared mutable state.**  Each chunk probes
  shallow :meth:`~repro.indexes.base.StateIndex.snapshot_view` copies that
  charge a private scratch accountant and tally probe heat privately; the
  store, the tuner, and the result cache stay coordinator-only.
- **Merges happen in submission order.**  The coordinator collects chunk
  results in the order it submitted them (exactly like
  ``merge_run_stats`` on the partition plane) and replays each scratch
  accountant onto the live one, so counter totals — and therefore every
  float the engine derives from them — are bit-identical to the serial
  probe sequence (integer tallies commute between engine observation
  points).
- **Snapshots are epoch-guarded.**  Any store mutation bumps the epoch
  and a stale snapshot refuses to probe; within the route/probe stage the
  stores are read-only, so the guard never trips in the engine — it
  exists so the invariant is enforced, not assumed.

With ``lazy_index`` the workers probe the frozen crack tiers directly and
bypass the coordinator's hot-result cache; the cache contract (a hit
replays the miss's exact accountant delta) makes the bypass charge- and
match-identical, leaving only ``crack_*`` telemetry (heat-driven
promotion timing, cache hit counts) to differ — the same containment the
lazy differential suite already pins.

On a multi-core host the pool realizes near-linear probe-stage scaling;
under a single core (or the GIL on pure-Python search paths) the same
schedule degrades gracefully to serial speed, never to divergent results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.engine.kernel.batch import DEFAULT_BATCH_SIZE
from repro.engine.kernel.kernel import stages_around
from repro.engine.kernel.scheduler import Scheduler
from repro.engine.kernel.stages import RouteProbeStage, Stage

#: Default pool width; the acceptance benchmark's scaling point.
DEFAULT_PROBE_WORKERS = 4


class ParallelProbeStage(RouteProbeStage):
    """The pooled probe plane: a hop's column fans out to worker threads.

    Inherits the route/probe stage's hop structure (same-pattern probe
    columns, the ``max_fanout`` guard and its one-at-a-time fallback) and
    replaces only the column execution: chunks of ``batch_size`` rows
    (:data:`DEFAULT_BATCH_SIZE` when unset) go to a persistent pool of
    ``probe_workers`` threads, each probing a read-only store snapshot,
    merged deterministically in submission order.  ``probe_workers=1``
    defers to the inherited column wholesale (one worker has nothing to
    fan out) and is therefore bit-identical to it, including ``crack_*``
    telemetry.
    """

    name = "route_probe"

    def __init__(
        self,
        scheduler: Scheduler | str | None = None,
        batch_size: int | None = None,
        probe_workers: int = DEFAULT_PROBE_WORKERS,
    ) -> None:
        super().__init__(
            scheduler, DEFAULT_BATCH_SIZE if batch_size is None else batch_size
        )
        if not isinstance(probe_workers, int) or isinstance(probe_workers, bool):
            raise TypeError(f"probe_workers must be an int, got {probe_workers!r}")
        if probe_workers < 1:
            raise ValueError(f"probe_workers must be >= 1, got {probe_workers}")
        self.probe_workers = probe_workers
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # pool lifecycle

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The persistent worker pool, created on first pooled hop."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.probe_workers, thread_name_prefix="probe-worker"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later hop re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing
        self.close()

    # ------------------------------------------------------------------ #
    # the pooled column

    def _probe_column(self, stem, ap, rows: list[dict[str, object]]) -> list:
        """One hop's column: snapshot once, fan chunks out, merge in order."""
        if self.probe_workers == 1 or len(rows) == 1:
            return super()._probe_column(stem, ap, rows)
        size = self.batch_size
        columns = [rows[start : start + size] for start in range(0, len(rows), size)]
        # One snapshot per hop: the store is read-only for the hop's whole
        # duration, so every chunk probes the same frozen epoch.
        snapshot = stem.snapshot()
        if len(columns) == 1:
            # A single chunk gains nothing from a thread handoff; run it
            # inline through the identical snapshot path.
            results = [snapshot.probe_chunk(ap, columns[0])]
        else:
            pool = self._ensure_pool()
            futures = [pool.submit(snapshot.probe_chunk, ap, column) for column in columns]
            results = [future.result() for future in futures]
        # Replay on the coordinator: the hop's assessor observations as one
        # run (the only RNG consumers — one per row, exactly as serial),
        # then each chunk's scratch accountant and harvested heat in
        # submission order.
        stem.tuner.observe_run(ap, len(rows))
        outcomes: list = []
        for result in results:
            snapshot.absorb(result)
            outcomes += result.outcomes
        return outcomes


def parallel_stages(
    scheduler: Scheduler | str | None = None,
    batch_size: int | None = None,
    probe_workers: int = DEFAULT_PROBE_WORKERS,
) -> tuple[Stage, ...]:
    """The canonical pipeline with the parallel probe plane spliced in.

    Same nine phases in the same order as
    :func:`~repro.engine.kernel.kernel.default_stages`; with
    ``batch_size=None`` the probe stage chunks its columns at
    :data:`DEFAULT_BATCH_SIZE`.  Runs are bit-identical to the default
    pipeline at every width (``crack_*`` telemetry excepted under
    ``lazy_index``, as documented on :class:`ParallelProbeStage`).
    """
    return stages_around(ParallelProbeStage(scheduler, batch_size, probe_workers))
