"""Parallel experiment execution across processes.

Scheme comparisons and parameter sweeps are embarrassingly parallel — every
run is an independent, seeded, CPU-bound simulation — so they scale across
cores with a process pool.  Work is described declaratively
(:class:`RunSpec`: scenario parameters + scheme + ticks) and rebuilt inside
each worker, so nothing heavier than a dataclass crosses the process
boundary.

    specs = [RunSpec(ScenarioParams(seed=s), scheme, ticks=400)
             for s in (7, 8, 9)
             for scheme in ("amri:cdia-highest", "static")]
    results = run_parallel(specs, workers=4)

Determinism is preserved: a spec's result is identical whether it runs in a
worker or in-process (``workers=0``), which the tests assert.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from repro.engine.kernel import (
    default_partitioner,
    merge_event_timelines,
    merge_run_stats,
)
from repro.engine.metrics import MetricsRegistry, RegistrySnapshot, merge_snapshots
from repro.engine.resources import DegradationPolicy
from repro.engine.slo import (
    LatencySnapshot,
    LatencyTracker,
    SloMonitor,
    SloSpec,
    merge_latency_snapshots,
)
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent, EventLog
from repro.experiments.harness import (
    TrainingResult,
    cached_training,
    run_scheme,
    run_scheme_fleet,
    trained_start,
)
from repro.workloads.scenarios import PaperScenario, ScenarioParams


@dataclass(frozen=True)
class RunSpec:
    """One independent experiment run, fully described by value.

    ``faults`` names a profile from
    :data:`~repro.engine.faults.FAULT_PROFILES` (a name, not a plan, so
    specs stay hashable and cheap to pickle); ``fault_seed`` seeds its
    deterministic injector.  ``degrade=True`` attaches the default
    :class:`~repro.engine.resources.DegradationPolicy` so memory pressure
    sheds and degrades instead of killing the run.  ``collect_metrics=True``
    attaches a :class:`~repro.engine.metrics.MetricsRegistry` and ships its
    frozen snapshot back on the outcome (metrics are observer-effect-free,
    so the stats are identical either way).  ``slo`` is an SLO spec string
    (:meth:`~repro.engine.slo.SloSpec.parse`, e.g. ``"p95<=8@120"``) that
    arms per-tuple latency tracking plus burn-rate monitoring and ships the
    frozen :class:`~repro.engine.slo.LatencySnapshot` back on the outcome.

    ``training`` optionally carries a precomputed (picklable)
    :class:`~repro.experiments.harness.TrainingResult` to the worker, so a
    pool run trains once per distinct ``(params, train_ticks)`` instead of
    once per worker; :func:`run_parallel` fills it automatically.  Training
    is deterministic, so a shipped result is bit-identical to an in-worker
    retrain — and the field is excluded from equality/hashing (it is a
    cache, not part of the run's identity).
    """

    params: ScenarioParams
    scheme: str
    ticks: int
    train: bool = True
    train_ticks: int = 100
    seed_offset: int = 0
    label: str | None = None
    faults: str | None = None
    fault_seed: int = 0
    degrade: bool = False
    collect_metrics: bool = False
    slo: str | None = None  # SLO spec string, e.g. "p95<=8@120" (arms latency tracking)
    scheduler: str | None = None  # backlog-drain policy name (None = fifo)
    partitions: int = 1  # independent hash-partitioned kernels per run
    fleet: int = 1  # divergent replicas with cost-routed probes (1 = single engine)
    index_backend: str | None = None  # registry backend override (None = scheme default)
    migration_budget: int | None = None  # tuples moved per tick (None = stop-the-world)
    training: TrainingResult | None = field(default=None, compare=False, repr=False)

    def display_label(self) -> str:
        """The spec's name in result listings."""
        return self.label if self.label is not None else f"{self.scheme}@seed{self.params.seed}"


@dataclass
class RunOutcome:
    """A spec together with its statistics, events, and metrics payload.

    ``metrics`` is a frozen :class:`~repro.engine.metrics.RegistrySnapshot`
    when the spec asked for one (``collect_metrics=True``) — picklable, so
    it crosses the process-pool boundary like everything else — letting
    figures break a run's throughput down by component after the fact.
    """

    spec: RunSpec
    stats: RunStats
    events: tuple[EngineEvent, ...] = ()
    metrics: RegistrySnapshot | None = None
    latency: LatencySnapshot | None = None
    partition_stats: tuple[RunStats, ...] = ()

    @property
    def outputs(self) -> int:
        return self.stats.outputs


_PartitionResult = tuple[
    RunStats,
    tuple[EngineEvent, ...],
    RegistrySnapshot | None,
    LatencySnapshot | None,
]


def _slo_attachments(spec: RunSpec) -> tuple[LatencyTracker | None, SloMonitor | None]:
    """The spec's latency tracker + monitor (fresh per engine), or Nones.

    A spec's ``slo`` string arms per-tuple latency tracking with the
    objective's threshold and a monitor evaluating it; without one nothing
    is attached, keeping the run observer-effect-free by construction.
    """
    if spec.slo is None:
        return None, None
    parsed = SloSpec.parse(spec.slo)
    return LatencyTracker(threshold=parsed.threshold_ticks), SloMonitor(parsed)


def _engine_options(spec: RunSpec) -> dict[str, object]:
    """The spec's engine-mode fields as ``make_executor`` keywords.

    Built here once for the single-engine, per-partition and fleet paths;
    the per-run attachments (event log, registry, tracker, monitor) differ
    between those paths and stay at the call sites.
    """
    return dict(
        faults=spec.faults,
        fault_seed=spec.fault_seed,
        degradation=DegradationPolicy() if spec.degrade else None,
        scheduler=spec.scheduler,
        index_backend=spec.index_backend,
        migration_budget=spec.migration_budget,
    )


def _resolve_training(spec: RunSpec) -> "TrainingResult | None":
    """The spec's training: shipped with the spec, else memoized locally.

    The memo (:func:`~repro.experiments.harness.cached_training`) makes
    even the fallback path train once per ``(params, train_ticks)`` within
    a process — e.g. the partitions of one spec, or serial sweeps that did
    not go through :func:`run_parallel`.
    """
    if not spec.train:
        return None
    if spec.training is not None:
        return spec.training
    return cached_training(spec.params, spec.train_ticks)


def _share_training(specs: list[RunSpec]) -> list[RunSpec]:
    """Attach one :class:`TrainingResult` per distinct training key.

    Specs that already carry a training (or do not train) pass through
    unchanged; the rest get the memoized result so pool workers receive it
    by pickle instead of re-running the training workload.
    """
    out = []
    for spec in specs:
        if not spec.train or spec.training is not None:
            out.append(spec)
        else:
            out.append(
                replace(spec, training=cached_training(spec.params, spec.train_ticks))
            )
    return out


def _run_partition(spec: RunSpec, index: int) -> _PartitionResult:
    """Run one partition of one spec, fully rebuilt by value.

    With ``spec.partitions == 1`` the arrivals are unfiltered — this *is*
    the plain single-engine run.  Otherwise the partition sees the hash
    slice ``index`` of the identical global arrival sequence (each call
    builds its own generator, so RNG draws replay exactly regardless of
    which process or order partitions run in).
    """
    scenario = PaperScenario(spec.params)
    training = _resolve_training(spec)
    log = EventLog()
    registry = MetricsRegistry() if spec.collect_metrics else None
    tracker, monitor = _slo_attachments(spec)
    executor = scenario.make_executor(
        spec.scheme,
        **trained_start(training, spec.scheme),
        event_log=log,
        metrics=registry,
        latency=tracker,
        slo=monitor,
        **_engine_options(spec),
    )
    generator = scenario.make_generator(seed_offset=spec.seed_offset)
    if spec.partitions == 1:
        arrivals = generator
    else:
        partitioner = default_partitioner(spec.partitions)

        def arrivals(tick: int):
            return [item for item in generator(tick) if partitioner(item) == index]

    stats = executor.run(spec.ticks, arrivals)
    return (
        stats,
        tuple(log),
        registry.snapshot() if registry is not None else None,
        tracker.snapshot() if tracker is not None else None,
    )


def _execute_partition_task(task: tuple[RunSpec, int]) -> _PartitionResult:
    """Picklable pool worker: one ``(spec, partition index)`` unit."""
    return _run_partition(*task)


def _merge_outcome(spec: RunSpec, parts: list[_PartitionResult]) -> RunOutcome:
    """Fold per-partition results into one outcome (deterministic merge)."""
    snapshots = [snap for _, _, snap, _ in parts if snap is not None]
    latencies = [lat for _, _, _, lat in parts if lat is not None]
    return RunOutcome(
        spec=spec,
        stats=merge_run_stats([stats for stats, _, _, _ in parts]),
        events=tuple(
            event
            for _, event in merge_event_timelines([events for _, events, _, _ in parts])
        ),
        metrics=merge_snapshots(snapshots) if snapshots else None,
        latency=merge_latency_snapshots(latencies) if latencies else None,
        partition_stats=tuple(stats for stats, _, _, _ in parts),
    )


def execute_spec_fleet(spec: RunSpec) -> RunOutcome:
    """Run one spec as a divergent replica fleet of ``spec.fleet`` engines.

    Arrivals replicate to every replica and probes route to the
    modeled-cheapest one (:class:`~repro.fleet.FleetEngine` via
    :func:`~repro.experiments.harness.run_scheme_fleet`).  The outcome's
    ``stats`` is the deterministic fleet merge (logical outputs, fleet
    death only when every replica died), ``partition_stats`` carries the
    per-replica stats, and events/metrics/latency are the merged
    per-replica views plus the fleet-level ``replica_route`` timeline.
    ``spec.fleet == 1`` is the plain single-engine run, bit-for-bit.
    """
    scenario = PaperScenario(spec.params)
    training = _resolve_training(spec)
    registry = MetricsRegistry() if spec.collect_metrics else None
    fleet_log = EventLog()
    stats, engine = run_scheme_fleet(
        scenario,
        spec.scheme,
        spec.ticks,
        fleet=spec.fleet,
        training=training,
        seed_offset=spec.seed_offset,
        fleet_event_log=fleet_log,
        fleet_metrics=registry,
        # Per-replica attachments go in as factories; each replica
        # materialises its own (instances must not be shared).
        event_log=EventLog,
        metrics=MetricsRegistry if spec.collect_metrics else None,
        latency=(lambda: _slo_attachments(spec)[0]) if spec.slo else None,
        **_engine_options(spec),
    )
    events = [event for _, event in engine.merged_events()]
    events.extend(fleet_log)
    events.sort(key=lambda e: e.tick)
    merged_metrics = engine.merged_snapshot()
    if registry is not None:
        fleet_snap = registry.snapshot()
        merged_metrics = (
            merge_snapshots([merged_metrics, fleet_snap])
            if merged_metrics is not None
            else fleet_snap
        )
    return RunOutcome(
        spec=spec,
        stats=stats,
        events=tuple(events),
        metrics=merged_metrics,
        latency=engine.merged_latency(),
        partition_stats=tuple(engine.replica_stats),
    )


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec to completion (used directly and as the pool worker).

    ``spec.partitions > 1`` runs every partition in-process, serially, and
    merges — byte-identical to the pool-per-partition path
    (:func:`execute_spec_partitioned`), which the partition suite asserts.
    ``spec.fleet > 1`` delegates to :func:`execute_spec_fleet` (the two
    are mutually exclusive; the CLI enforces it).
    """
    if spec.fleet > 1:
        return execute_spec_fleet(spec)
    if spec.partitions > 1:
        return _merge_outcome(
            spec, [_run_partition(spec, i) for i in range(spec.partitions)]
        )
    scenario = PaperScenario(spec.params)
    training = _resolve_training(spec)
    log = EventLog()
    registry = MetricsRegistry() if spec.collect_metrics else None
    tracker, monitor = _slo_attachments(spec)
    stats = run_scheme(
        scenario,
        spec.scheme,
        spec.ticks,
        training=training,
        seed_offset=spec.seed_offset,
        event_log=log,
        metrics=registry,
        latency=tracker,
        slo=monitor,
        **_engine_options(spec),
    )
    return RunOutcome(
        spec=spec,
        stats=stats,
        events=tuple(log),
        metrics=registry.snapshot() if registry is not None else None,
        latency=tracker.snapshot() if tracker is not None else None,
        partition_stats=(stats,),
    )


def execute_spec_partitioned(spec: RunSpec, *, workers: int = 4) -> RunOutcome:
    """Run one partitioned spec with each partition in its own process.

    Partitions are independent engines over disjoint arrival slices, so
    they parallelise like separate specs; results merge in partition order
    and are identical to the serial :func:`execute_spec` path.  ``workers=0``
    (or a single partition) falls back to the in-process path.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0 or spec.partitions == 1:
        return execute_spec(spec)
    tasks = [(spec, index) for index in range(spec.partitions)]
    with ProcessPoolExecutor(max_workers=min(workers, spec.partitions)) as pool:
        parts = list(pool.map(_execute_partition_task, tasks))
    return _merge_outcome(spec, parts)


def run_parallel(specs: list[RunSpec], *, workers: int = 4) -> list[RunOutcome]:
    """Execute every spec, ``workers`` at a time; results in spec order.

    ``workers=0`` (or a single spec) runs everything in-process, which is
    also the fallback path for environments without working
    ``multiprocessing``.
    """
    if not specs:
        return []
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    specs = _share_training(specs)
    if workers == 0 or len(specs) == 1:
        return [execute_spec(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        return list(pool.map(execute_spec, specs))


def compare_parallel(
    params: ScenarioParams,
    schemes: list[str],
    ticks: int,
    *,
    workers: int = 4,
    train: bool = True,
    train_ticks: int = 100,
) -> dict[str, RunStats]:
    """Parallel analogue of :func:`repro.experiments.harness.run_comparison`.

    Each scheme runs in its own process over identical arrivals.  The
    quasi-training runs once up front (all specs share one training key)
    and ships to every worker on its spec — training is deterministic, so
    results match the serial path exactly, now without the per-worker
    retrain the old implementation paid.
    """
    specs = [
        RunSpec(params, scheme, ticks, train=train, train_ticks=train_ticks)
        for scheme in schemes
    ]
    outcomes = run_parallel(specs, workers=workers)
    return {outcome.spec.scheme: outcome.stats for outcome in outcomes}
