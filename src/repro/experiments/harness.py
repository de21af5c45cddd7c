"""Experiment harness: quasi-training, scheme runs, and comparisons.

Reproduces the paper's protocol (Section V):

1. **Quasi-training** — "the IC on each state ... is initiated by running
   index selection using statistics gathered by executing the stream for 15
   minutes".  :func:`train_initial_state` runs the scenario for a training
   period on a *separate* seed offset with exact (SRIA) assessment, then
   derives per-state starting ICs (for bit-address schemes) and most-frequent
   pattern lists (for the hash baseline).
2. **Measured runs** — :func:`run_scheme` executes one scheme over the
   shared measured workload and returns its :class:`RunStats`;
   :func:`run_comparison` runs several schemes over identical arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.access_pattern import AccessPattern
from repro.core.cost_model import WorkloadStatistics
from repro.core.index_config import IndexConfiguration
from repro.core.selector import pad_patterns_to_k, select_exhaustive, select_hash_patterns
from repro.engine.kernel import PartitionedEngine
from repro.engine.stats import RunStats
from repro.workloads.scenarios import PaperScenario, ScenarioParams, hash_module_count

TRAINING_SEED_OFFSET = 1_000_003  # decorrelates training data from measured runs


@dataclass
class TrainingResult:
    """What quasi-training learned, per state."""

    frequencies: dict[str, dict[AccessPattern, float]] = field(default_factory=dict)
    configs: dict[str, IndexConfiguration] = field(default_factory=dict)
    #: The full per-state statistics the configs were selected from —
    #: what fleet selection and the replica router re-consume.
    statistics: dict[str, WorkloadStatistics] = field(default_factory=dict)

    def hash_patterns(self, k: int) -> dict[str, list[AccessPattern]]:
        """Per-state module sets: the k most frequent patterns, padded so a
        trial really starts with k modules (the paper's fixed trial size)."""
        out = {}
        for stream, freqs in self.frequencies.items():
            chosen = select_hash_patterns(freqs, k)
            jas = next(iter(freqs)).jas if freqs else None
            out[stream] = pad_patterns_to_k(jas, chosen, k) if jas is not None else chosen
        return out


def train_initial_state(
    scenario: PaperScenario,
    *,
    train_ticks: int = 120,
    theta: float | None = None,
) -> TrainingResult:
    """Run the quasi-training period and derive starting configurations.

    Training uses the AMRI scheme with exact SRIA assessment and unlimited
    resources so the statistics reflect the workload, not a resource
    bottleneck, and a distinct seed offset so the measured runs never see
    the training data.
    """
    p = scenario.params
    executor = scenario.make_executor(
        "amri:sria",
        capacity=float("1e12"),
        memory_budget=1 << 40,
    )
    generator = scenario.make_generator(seed_offset=TRAINING_SEED_OFFSET)
    executor.run(train_ticks, generator)

    theta = p.theta if theta is None else theta
    result = TrainingResult()
    domain_bits = scenario.domain_bits()
    for stream, stem in executor.stems.items():
        assessor = stem.tuner.assessor
        freqs = assessor.frequent_patterns(theta)
        if not freqs:
            freqs = assessor.frequencies()
        result.frequencies[stream] = freqs
        stats = WorkloadStatistics(
            lambda_d=float(p.rate),
            lambda_r=max(assessor.n_requests / max(train_ticks, 1), 1.0),
            window=float(p.window),
            frequencies=freqs if freqs else {AccessPattern.full_scan(stem.jas): 1.0},
            domain_bits=domain_bits,
        )
        result.statistics[stream] = stats
        result.configs[stream] = select_exhaustive(
            stats, stem.jas, p.bit_budget, scenario.cost_params
        )
    return result


#: Process-local quasi-training memo: ``(params, train_ticks)`` → result.
#: Training is deterministic in that key (a fixed seed offset, default
#: theta), so recomputing it per scheme/worker is pure waste — sweeps
#: comparing k schemes over one scenario used to pay k identical trainings.
_TRAINING_CACHE: dict[tuple[ScenarioParams, int], TrainingResult] = {}


def cached_training(params: ScenarioParams, train_ticks: int) -> TrainingResult:
    """:func:`train_initial_state` computed once per ``(params, train_ticks)``.

    The returned :class:`TrainingResult` is shared — callers must treat it
    as read-only (they all do: it is consumed via ``configs`` lookups and
    :meth:`TrainingResult.hash_patterns`, which builds fresh lists).
    Non-default ``theta`` trainings are not cached; call
    :func:`train_initial_state` directly for those.
    """
    key = (params, train_ticks)
    result = _TRAINING_CACHE.get(key)
    if result is None:
        result = train_initial_state(PaperScenario(params), train_ticks=train_ticks)
        _TRAINING_CACHE[key] = result
    return result


def clear_training_cache() -> None:
    """Drop every memoized training (mainly for tests and long sessions)."""
    _TRAINING_CACHE.clear()


def trained_start(
    training: TrainingResult | None, scheme: str, hash_k: int | None = None
) -> dict[str, object]:
    """The two ``make_executor`` keywords that start ``scheme`` from ``training``.

    Bit-address schemes start from the trained ICs and the hash baseline
    from the trained most-frequent patterns (``hash_k`` of them, default the
    scheme's own ``k``) — the paper's protocol for the Figure 6/7 baselines.
    Without training both are ``None``: the scenario's uninformed defaults.
    """
    if training is None:
        return {"initial_configs": None, "initial_hash_patterns": None}
    patterns = None
    if scheme.startswith("hash:"):
        patterns = training.hash_patterns(
            hash_module_count(scheme) if hash_k is None else hash_k
        )
    return {"initial_configs": training.configs, "initial_hash_patterns": patterns}


def run_scheme(
    scenario: PaperScenario,
    scheme: str,
    duration: int,
    *,
    training: TrainingResult | None = None,
    hash_k: int | None = None,
    seed_offset: int = 0,
    **executor_overrides,
) -> RunStats:
    """Execute one scheme for ``duration`` ticks over the measured workload.

    ``training`` starts the scheme from the quasi-trained state (see
    :func:`trained_start`).

    Robustness knobs pass straight through ``executor_overrides`` to
    :meth:`~repro.workloads.scenarios.PaperScenario.make_executor`:
    ``faults=`` / ``fault_seed=`` for deterministic fault injection,
    ``degradation=`` for graceful degradation under memory pressure,
    ``event_log=`` to capture the run's fault/degrade/shed timeline, and
    ``metrics=`` (a :class:`~repro.engine.metrics.MetricsRegistry`) for
    cost-unit attribution and span tracing.
    """
    executor = scenario.make_executor(
        scheme, **trained_start(training, scheme, hash_k), **executor_overrides
    )
    generator = scenario.make_generator(seed_offset=seed_offset)
    return executor.run(duration, generator)


def run_scheme_partitioned(
    scenario: PaperScenario,
    scheme: str,
    duration: int,
    *,
    partitions: int,
    training: TrainingResult | None = None,
    hash_k: int | None = None,
    seed_offset: int = 0,
    partitioner=None,
    **executor_overrides,
) -> tuple[RunStats, PartitionedEngine]:
    """Execute one scheme across ``partitions`` independent kernels.

    Each partition is a fully-wired executor (own states, meter, and —
    if factories are passed via ``executor_overrides`` — own event log /
    metrics registry) seeing a hash slice of the measured workload; the
    merged :class:`RunStats` plus the engine (for per-partition stats,
    merged events, and merged snapshots) are returned.

    ``partitions == 1`` is bit-for-bit :func:`run_scheme` — the engine
    skips arrival filtering entirely.

    Per-partition attachments: ``event_log=`` / ``metrics=`` overrides may
    be zero-argument *factories* instead of instances; each partition then
    gets a fresh object (instances would be shared, which partitioning
    forbids for anything stateful).
    """
    start = trained_start(training, scheme, hash_k)

    def build(_index: int):
        overrides = dict(executor_overrides)
        for attachment in ("event_log", "metrics", "latency", "slo"):
            factory = overrides.get(attachment)
            if callable(factory):
                overrides[attachment] = factory()
        return scenario.make_executor(scheme, **start, **overrides)

    engine = PartitionedEngine(build, partitions, partitioner=partitioner)
    stats = engine.run(
        duration, lambda: scenario.make_generator(seed_offset=seed_offset)
    )
    return stats, engine


def run_scheme_fleet(
    scenario: PaperScenario,
    scheme: str,
    duration: int,
    *,
    fleet: int,
    training: TrainingResult | None = None,
    hash_k: int | None = None,
    seed_offset: int = 0,
    mode: str = "routed",
    fault_replica: int = 0,
    retune_interval: int | None = None,
    max_backlog: int = 4096,
    fleet_event_log=None,
    fleet_metrics=None,
    **executor_overrides,
) -> tuple[RunStats, "FleetEngine"]:
    """Execute one scheme across a ``fleet`` of divergent replicas.

    Every replica is a fully-wired executor holding the *same* windows
    (arrivals replicate) under a *different* index configuration: with
    ``training`` given and a bit-address scheme, replica ``i`` is pinned
    to slot ``i`` of each stream's :func:`~repro.core.selector.select_fleet`
    set; without training every replica starts from the scenario default.
    Probes route to the modeled-cheapest healthy replica
    (``mode="routed"``) or execute everywhere (``mode="broadcast"``, the
    differential oracle).  Returns the merged :class:`RunStats` plus the
    engine (per-replica stats, routing shares, merged snapshots).

    ``fleet == 1`` is bit-for-bit :func:`run_scheme`.  For ``fleet > 1``
    each replica's own tuner is frozen (assessors keep recording) and
    adaptation moves up a level: with ``retune_interval`` set, the fleet
    merges the replicas' assessor statistics and re-selects the whole
    configuration set on that cadence.

    A fault plan in ``executor_overrides`` attaches only to replica
    ``fault_replica`` — squeezing one replica is the degrade-to-broadcast
    drill; faulting all replicas identically would just be K copies of
    the single-engine fault run.  Per-replica attachments (``event_log``,
    ``metrics``, ``latency``, ``slo``) may be zero-argument factories,
    exactly as in :func:`run_scheme_partitioned`; ``fleet_event_log`` /
    ``fleet_metrics`` are the *fleet-level* telemetry objects
    (``replica_route`` events, ``fleet_*`` series).
    """
    from repro.core.selector import FleetSelector, select_fleet
    from repro.core.tuner import NullTuner
    from repro.fleet import FleetEngine

    p = scenario.params
    start = trained_start(training, scheme, hash_k)

    stats_for: dict[str, WorkloadStatistics] = {}
    domain_bits = scenario.domain_bits()
    for stream in p.stream_names:
        if training is not None and stream in training.statistics:
            stats_for[stream] = training.statistics[stream]
        else:
            stats_for[stream] = WorkloadStatistics(
                lambda_d=float(p.rate),
                lambda_r=1.0,
                window=float(p.window),
                frequencies={},
                domain_bits=domain_bits,
            )

    fleet_configs: dict[str, tuple[IndexConfiguration, ...]] = {}
    selectors: dict[str, FleetSelector] = {}
    # Rotate which replica holds which slot per stream: coverage per state
    # is rotation-invariant (the cost model min-reduces over the same
    # set), but without rotation replica 0 would hold the best-single
    # slot for every stream and win all traffic.
    slot_offsets = {stream: j for j, stream in enumerate(sorted(p.stream_names))}
    divergent = fleet > 1 and scenario.backend_for_scheme(scheme) in (
        "bit_address",
        "static_bitmap",
    )
    if divergent:
        for stream in p.stream_names:
            jas = scenario.query.jas_for(stream)
            if training is not None and stream in training.statistics:
                fleet_configs[stream] = select_fleet(
                    training.statistics[stream],
                    jas,
                    p.bit_budget,
                    fleet,
                    scenario.cost_params,
                )
            if retune_interval is not None:
                selectors[stream] = FleetSelector(
                    jas, p.bit_budget, fleet, scenario.cost_params
                )

    def build(index: int):
        overrides = dict(executor_overrides)
        if index != fault_replica:
            overrides.pop("faults", None)
            overrides.pop("fault_seed", None)
        for attachment in ("event_log", "metrics", "latency", "slo"):
            factory = overrides.get(attachment)
            if callable(factory):
                overrides[attachment] = factory()
        replica_start = dict(start)
        if fleet_configs:
            replica_start["initial_configs"] = {
                s: cfgs[(index + slot_offsets[s]) % fleet]
                for s, cfgs in fleet_configs.items()
            }
        executor = scenario.make_executor(scheme, **replica_start, **overrides)
        if fleet > 1:
            # Per-replica tuners would re-converge every replica to its own
            # local optimum, collapsing the divergence the fleet exists
            # for.  Freeze them (assessors keep recording through probes)
            # and let the fleet-level retune hook adapt the whole set.
            for stem in executor.stems.values():
                stem.tuner = NullTuner(getattr(stem.tuner, "assessor", None))
        return executor

    engine = FleetEngine(
        build,
        fleet,
        stats_for=stats_for,
        params=scenario.cost_params,
        mode=mode,
        slot_offsets=slot_offsets if divergent else None,
        selectors=selectors or None,
        retune_interval=retune_interval,
        max_backlog=max_backlog,
        event_log=fleet_event_log,
        metrics=fleet_metrics,
    )
    stats = engine.run(
        duration, lambda: scenario.make_generator(seed_offset=seed_offset)
    )
    return stats, engine


def run_comparison(
    scenario: PaperScenario,
    schemes: list[str],
    duration: int,
    *,
    train: bool = True,
    train_ticks: int = 120,
    seed_offset: int = 0,
    **executor_overrides,
) -> dict[str, RunStats]:
    """Run several schemes over identical arrivals; returns scheme → stats."""
    training = cached_training(scenario.params, train_ticks) if train else None
    return {
        scheme: run_scheme(
            scenario,
            scheme,
            duration,
            training=training,
            seed_offset=seed_offset,
            **executor_overrides,
        )
        for scheme in schemes
    }
