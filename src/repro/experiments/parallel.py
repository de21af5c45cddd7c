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

:class:`RunSpec` is also *the* description of a run for the CLIs: it
rejects a bad run at construction (before any quasi-training),
:meth:`RunSpec.describe` is the header line ``repro run`` / ``repro slo``
print, and :func:`execute_spec` is the one place a spec's mode fields
(``partitions``, ``fleet``, ``slo``, ``faults`` ...) turn into engines.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

from repro.engine.faults import resolve_fault_plan
from repro.engine.kernel import resolve_scheduler
from repro.engine.metrics import MetricsRegistry, RegistrySnapshot
from repro.engine.resources import DegradationPolicy
from repro.engine.slo import LatencySnapshot, LatencyTracker, SloMonitor, SloSpec
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent, EventLog
from repro.experiments.harness import (
    TrainingResult,
    cached_training,
    run_scheme_fleet,
    run_scheme_partitioned,
)
from repro.storage import BACKENDS, UnknownBackendError
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

    Construction validates the whole description — sizes, mode
    combination, scheme / scheduler / backend / fault-profile names and the
    SLO string — and raises a ``ValueError`` naming the offending field, so
    a spec that exists can be executed.
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

    @staticmethod
    def check(
        params: ScenarioParams, scheme: str, *, scheduler: str | None = None, **sizes: int
    ) -> None:
        """Raise a ``ValueError`` naming the first bad value of a run description.

        Every keyword in ``sizes`` (``ticks=``, ``train_ticks=`` ...) must
        be ``>= 1``, ``scheme`` must name a scheme of the ``params``
        scenario and ``scheduler`` a drain policy.  The part of the
        construction check that ``repro profile`` (its own entry point, no
        spec) shares, so a typo costs no quasi-training there either.
        """
        for name, value in sizes.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        PaperScenario(params).check_scheme(scheme)
        resolve_scheduler(scheduler)

    def __post_init__(self) -> None:
        self.check(
            self.params,
            self.scheme,
            scheduler=self.scheduler,
            ticks=self.ticks,
            train_ticks=self.train_ticks,
            partitions=self.partitions,
            fleet=self.fleet,
        )
        if self.fleet > 1 and self.partitions > 1:
            raise ValueError("fleet and partitions are mutually exclusive")
        if self.migration_budget is not None and self.migration_budget < 1:
            raise ValueError(f"migration_budget must be >= 1, got {self.migration_budget}")
        resolve_fault_plan(self.faults)
        if self.index_backend is not None:
            try:
                BACKENDS.resolve(self.index_backend)
            except UnknownBackendError as exc:
                raise ValueError(str(exc)) from None
        if self.slo is not None:
            SloSpec.parse(self.slo)

    def display_label(self) -> str:
        """The spec's name in result listings."""
        return self.label if self.label is not None else f"{self.scheme}@seed{self.params.seed}"

    def describe(self, schemes: Sequence[str] | None = None) -> str:
        """One ``name=value`` header line over every field that shapes the run.

        Generated from the dataclass fields (all but the ``training`` cache
        and the display ``label``), so a new field shows up without anyone
        remembering to print it; ``params`` lists its non-default knobs.
        ``schemes`` is shown in place of ``scheme`` — the CLIs pass their
        whole list, since one invocation's specs differ only by scheme.
        """
        parts = []
        for f in fields(self):
            if f.name in ("training", "label"):
                continue
            value = getattr(self, f.name)
            if f.name == "params":
                knobs = ", ".join(
                    f"{p.name}={getattr(value, p.name)!r}"
                    for p in fields(value)
                    if getattr(value, p.name) != p.default
                )
                value = f"{type(value).__name__}({knobs})"
            elif f.name == "scheme" and schemes is not None:
                value = ",".join(schemes)
            parts.append(f"{f.name}={value}")
        return "spec: " + " ".join(parts)


@dataclass
class RunOutcome:
    """A spec together with its statistics, events, and metrics payload.

    ``metrics`` is a frozen :class:`~repro.engine.metrics.RegistrySnapshot`
    when the spec asked for one (``collect_metrics=True``) — picklable, so
    it crosses the process-pool boundary like everything else — letting
    figures break a run's throughput down by component after the fact.
    ``partition_stats`` carries the per-partition (or per-replica) stats
    behind the merged ``stats``; ``fleet_rows`` is the per-replica routing
    report (:meth:`~repro.fleet.FleetEngine.replica_rows`) of a fleet run.
    """

    spec: RunSpec
    stats: RunStats
    events: tuple[EngineEvent, ...] = ()
    metrics: RegistrySnapshot | None = None
    latency: LatencySnapshot | None = None
    partition_stats: tuple[RunStats, ...] = ()
    fleet_rows: tuple[dict[str, object], ...] = ()

    @property
    def outputs(self) -> int:
        return self.stats.outputs


def _slo_attachments(spec: RunSpec) -> dict[str, object]:
    """The spec's latency tracker + monitor as per-engine factories.

    A spec's ``slo`` string arms per-tuple latency tracking with the
    objective's threshold and a monitor evaluating it, one fresh pair per
    kernel (partition or replica); without one nothing is attached, keeping
    the run observer-effect-free by construction.
    """
    if spec.slo is None:
        return {"latency": None, "slo": None}
    parsed = SloSpec.parse(spec.slo)
    return {
        "latency": lambda: LatencyTracker(threshold=parsed.threshold_ticks),
        "slo": lambda: SloMonitor(parsed),
    }


def _harness_options(spec: RunSpec) -> dict[str, object]:
    """Everything of the spec the harness ``run_scheme_*`` calls share.

    Per-kernel attachments go in as zero-argument factories: every
    partition or replica materialises its own log / registry / tracker /
    monitor (instances must not be shared), merged deterministically after.
    """
    return dict(
        training=_resolve_training(spec),
        seed_offset=spec.seed_offset,
        event_log=EventLog,
        metrics=MetricsRegistry if spec.collect_metrics else None,
        **_slo_attachments(spec),
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
    fleet_log = EventLog()
    stats, engine = run_scheme_fleet(
        PaperScenario(spec.params),
        spec.scheme,
        spec.ticks,
        fleet=spec.fleet,
        fleet_event_log=fleet_log,
        **_harness_options(spec),
    )
    events = [event for _, event in engine.merged_events()]
    events.extend(fleet_log)
    events.sort(key=lambda e: e.tick)
    return RunOutcome(
        spec=spec,
        stats=stats,
        events=tuple(events),
        metrics=engine.merged_snapshot(),
        latency=engine.merged_latency(),
        partition_stats=tuple(engine.replica_stats),
        fleet_rows=tuple(engine.replica_rows()),
    )


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec to completion (used directly and as the pool worker).

    The one place a spec's mode fields become engines: ``spec.fleet > 1``
    delegates to :func:`execute_spec_fleet`; everything else is a
    :class:`~repro.engine.kernel.PartitionedEngine` of ``spec.partitions``
    kernels via :func:`~repro.experiments.harness.run_scheme_partitioned`,
    whose ``k = 1`` case is the plain single-engine run, bit-for-bit (its
    merged views of one kernel are that kernel's own).
    """
    if spec.fleet > 1:
        return execute_spec_fleet(spec)
    stats, engine = run_scheme_partitioned(
        PaperScenario(spec.params),
        spec.scheme,
        spec.ticks,
        partitions=spec.partitions,
        **_harness_options(spec),
    )
    return RunOutcome(
        spec=spec,
        stats=stats,
        events=tuple(event for _, event in engine.merged_events()),
        metrics=engine.merged_snapshot(),
        latency=engine.merged_latency(),
        partition_stats=tuple(engine.partition_stats),
    )


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
