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

:class:`RunSpec` is *the* description of a measured run — for the CLIs,
the figures, ``validate`` and the golden corpus alike:
it rejects a bad run at construction (before any quasi-training),
:meth:`RunSpec.describe` is the header line ``repro run`` prints, and
:func:`execute_spec` is the one place a spec turns into an engine (its
trained start and its mode fields ``degrade`` and ``collect_metrics``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

from repro.engine.executor import AMRExecutor
from repro.engine.metrics import MetricsRegistry, RegistrySnapshot
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent, EventLog
from repro.experiments.harness import TrainingResult, cached_training
from repro.workloads.scenarios import PaperScenario, ScenarioParams, parse_scheme


@dataclass(frozen=True)
class RunSpec:
    """One independent experiment run, fully described by value.

    ``degrade=True`` makes memory pressure shed backlog and degrade indexes
    (:class:`~repro.engine.kernel.ShedDegradeStage`) instead of killing the
    run.  ``collect_metrics=True`` attaches a
    :class:`~repro.engine.metrics.MetricsRegistry` and ships its frozen
    snapshot back on the outcome (metrics are observer-effect-free, so the
    stats are identical either way).

    ``training`` optionally carries a precomputed (picklable)
    :class:`~repro.experiments.harness.TrainingResult` to the worker, so a
    pool run trains once per distinct ``(params, train_ticks)`` instead of
    once per worker; :func:`run_parallel` fills it automatically.  Training
    is deterministic, so a shipped result is bit-identical to an in-worker
    retrain — and the field is excluded from equality/hashing (it is a
    cache, not part of the run's identity).

    Construction validates the whole description — sizes and the scheme
    name — and raises a ``ValueError`` naming the offending field, so a spec
    that exists can be executed.
    """

    params: ScenarioParams
    scheme: str
    ticks: int
    train: bool = True
    train_ticks: int = 100
    degrade: bool = False
    collect_metrics: bool = False
    training: TrainingResult | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def check(params: ScenarioParams, scheme: str, **sizes: int) -> None:
        """Raise a ``ValueError`` naming the first bad value of a run description.

        Every keyword in ``sizes`` (``ticks=``, ``train_ticks=`` ...) must
        be ``>= 1`` and ``scheme`` must name a scheme of the ``params``
        scenario.  The construction check, also run on its own by a CLI
        that must reject a bad size before it builds any spec (``repro
        figures``), so a typo costs no quasi-training there either.
        """
        for name, value in sizes.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        PaperScenario(params).build_stems(scheme)  # cheap, and rejects what a run would

    def __post_init__(self) -> None:
        self.check(
            self.params,
            self.scheme,
            ticks=self.ticks,
            train_ticks=self.train_ticks,
        )

    def describe(self, schemes: Sequence[str] | None = None) -> str:
        """One ``name=value`` header line over every field that shapes the run.

        Generated from the dataclass fields (all but the ``training``
        cache), so a new field shows up without anyone remembering to
        print it; ``params`` lists its non-default knobs.
        ``schemes`` is shown in place of ``scheme`` — the CLIs pass their
        whole list, since one invocation's specs differ only by scheme.
        """
        parts = []
        for f in fields(self):
            if f.name == "training":
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
    """A spec together with its statistics, events, and metrics snapshot.

    ``meter_total`` is the run's virtual-clock total as the meter itself
    accumulated it — independent of any attached registry, so
    :func:`reconciles` compares two separately kept sums.  ``metrics`` is a frozen
    :class:`~repro.engine.metrics.RegistrySnapshot` when the spec asked
    for one (``collect_metrics=True``) — picklable, so it crosses the
    process-pool boundary like everything else.
    """

    spec: RunSpec
    stats: RunStats
    meter_total: float
    events: tuple[EngineEvent, ...] = ()
    metrics: RegistrySnapshot | None = None

    @classmethod
    def of(cls, spec: RunSpec, executor: AMRExecutor, stats: RunStats) -> RunOutcome:
        """Freeze what ``executor``'s attachments recorded for ``spec``."""
        ctx = executor.context
        registry = ctx.metrics
        return cls(
            spec=spec,
            stats=stats,
            meter_total=ctx.meter.total_spent,
            events=tuple(ctx.event_log),
            metrics=registry.snapshot() if registry is not None else None,
        )


#: Attribution drift tolerated between the clock and the per-row sums —
#: pure float regrouping error, so parts-per-billion is already generous.
RECONCILE_REL_TOL = 1e-9


def reconciles(snapshot: RegistrySnapshot, meter_total: float) -> bool:
    """True when attribution accounts for the whole clock: the chronological
    grand total matches the meter exactly and the per-series regrouped sum
    matches within float-associativity tolerance."""
    if snapshot.cost_total != meter_total:
        return False
    series_sum = snapshot.sum_values("cost_units_total")
    scale = max(abs(meter_total), 1.0)
    return abs(series_sum - meter_total) <= RECONCILE_REL_TOL * scale


def _share_training(spec: RunSpec) -> RunSpec:
    """``spec`` with its :class:`TrainingResult` attached, if it trains.

    A spec that already carries one (or does not train) passes through
    unchanged; the rest get the process-local memo
    (:func:`~repro.experiments.harness.cached_training`), so a pool
    receives one result per ``(params, train_ticks)`` by pickle and a
    serial sweep trains once per key.
    """
    if not spec.train or spec.training is not None:
        return spec
    return replace(spec, training=cached_training(spec.params, spec.train_ticks))


def spec_executor(spec: RunSpec) -> tuple[AMRExecutor, Callable]:
    """The engine ``spec`` describes, ready to run, and its arrivals.

    Every state starts from the spec's training (bit-address schemes from
    the trained ICs, ``hash:<k>`` from the trained ``k`` most frequent
    patterns — the paper's protocol for the Figure 6/7 baselines;
    untrained, from the scenario's uninformed defaults), and the spec's
    event log and metrics registry are attached.  Without
    ``collect_metrics`` no registry is attached, keeping the run
    observer-effect-free by construction.
    """
    training = _share_training(spec).training
    initial_configs = initial_hash_patterns = None
    if training is not None:
        initial_configs = training.configs
        family, k = parse_scheme(spec.scheme)
        if family == "hash":
            initial_hash_patterns = training.hash_patterns(k)
    scenario = PaperScenario(spec.params)
    executor = scenario.make_executor(
        spec.scheme,
        initial_configs=initial_configs,
        initial_hash_patterns=initial_hash_patterns,
        event_log=EventLog(),
        metrics=MetricsRegistry() if spec.collect_metrics else None,
        degrade=spec.degrade,
    )
    return executor, scenario.make_generator()


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec to completion (used directly and as the pool worker):
    the :func:`spec_executor` engine over the scenario's measured arrivals,
    frozen into the :class:`RunOutcome`."""
    executor, arrivals = spec_executor(spec)
    return RunOutcome.of(spec, executor, executor.run(spec.ticks, arrivals))


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
    specs = [_share_training(spec) for spec in specs]
    if workers == 0 or len(specs) == 1:
        return [execute_spec(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        return list(pool.map(execute_spec, specs))
