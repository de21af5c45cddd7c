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
:meth:`RunSpec.describe` is the header line ``repro run`` prints, and
:func:`execute_spec` is the one place a spec's mode fields (``faults``,
``degrade``, ``collect_latency`` ...) turn into an engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

from repro.engine.faults import resolve_fault_plan
from repro.engine.metrics import MetricsRegistry, RegistrySnapshot
from repro.engine.resources import DegradationPolicy
from repro.engine.latency import LatencySnapshot, LatencyTracker
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent, EventLog
from repro.experiments.harness import TrainingResult, cached_training, run_scheme
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
    so the stats are identical either way).  ``collect_latency=True`` attaches
    a :class:`~repro.engine.latency.LatencyTracker` and ships its frozen
    :class:`~repro.engine.latency.LatencySnapshot` back the same way.

    ``training`` optionally carries a precomputed (picklable)
    :class:`~repro.experiments.harness.TrainingResult` to the worker, so a
    pool run trains once per distinct ``(params, train_ticks)`` instead of
    once per worker; :func:`run_parallel` fills it automatically.  Training
    is deterministic, so a shipped result is bit-identical to an in-worker
    retrain — and the field is excluded from equality/hashing (it is a
    cache, not part of the run's identity).

    Construction validates the whole description — sizes, scheme and
    fault-profile names — and raises a ``ValueError`` naming the offending field, so a spec that
    exists can be executed.
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
    collect_latency: bool = False
    training: TrainingResult | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def check(params: ScenarioParams, scheme: str, **sizes: int) -> None:
        """Raise a ``ValueError`` naming the first bad value of a run description.

        Every keyword in ``sizes`` (``ticks=``, ``train_ticks=`` ...) must
        be ``>= 1`` and ``scheme`` must name a scheme of the ``params``
        scenario.  The part of the
        construction check that ``repro profile`` (its own entry point, no
        spec) shares, so a typo costs no quasi-training there either.
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
        resolve_fault_plan(self.faults)

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
    """A spec together with its statistics, events, and observer payloads.

    ``metrics`` is a frozen :class:`~repro.engine.metrics.RegistrySnapshot`
    when the spec asked for one (``collect_metrics=True``) and ``latency``
    a frozen :class:`~repro.engine.latency.LatencySnapshot`
    (``collect_latency=True``) — both picklable, so they cross the
    process-pool boundary like everything else.
    """

    spec: RunSpec
    stats: RunStats
    events: tuple[EngineEvent, ...] = ()
    metrics: RegistrySnapshot | None = None
    latency: LatencySnapshot | None = None

    @property
    def outputs(self) -> int:
        return self.stats.outputs


def _resolve_training(spec: RunSpec) -> "TrainingResult | None":
    """The spec's training: shipped with the spec, else memoized locally.

    The memo (:func:`~repro.experiments.harness.cached_training`) makes
    even the fallback path train once per ``(params, train_ticks)`` within
    a process — e.g. serial sweeps that did not go through
    :func:`run_parallel`.
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


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec to completion (used directly and as the pool worker).

    The whole run path: build the spec's event log, metrics registry and
    latency tracker, hand them to
    :func:`~repro.experiments.harness.run_scheme`, and freeze what they
    recorded into the :class:`RunOutcome`.  Without ``collect_metrics`` /
    ``collect_latency`` nothing is attached for them, keeping the run
    observer-effect-free by construction.
    """
    log = EventLog()
    registry = MetricsRegistry() if spec.collect_metrics else None
    tracker = LatencyTracker() if spec.collect_latency else None
    stats = run_scheme(
        PaperScenario(spec.params),
        spec.scheme,
        spec.ticks,
        training=_resolve_training(spec),
        seed_offset=spec.seed_offset,
        event_log=log,
        metrics=registry,
        latency=tracker,
        faults=spec.faults,
        fault_seed=spec.fault_seed,
        degradation=DegradationPolicy() if spec.degrade else None,
    )
    return RunOutcome(
        spec=spec,
        stats=stats,
        events=tuple(log),
        metrics=registry.snapshot() if registry is not None else None,
        latency=tracker.snapshot() if tracker is not None else None,
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
