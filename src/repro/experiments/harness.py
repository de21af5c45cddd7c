"""Experiment harness: the quasi-training half of the paper's protocol.

Reproduces Section V's first step, **quasi-training** — "the IC on each
state ... is initiated by running index selection using statistics
gathered by executing the stream for 15 minutes".
:func:`train_initial_state` runs the scenario for a training period on a
*separate* seed offset with exact (SRIA) assessment, then derives
per-state starting ICs (for bit-address schemes) and most-frequent pattern
lists (for the hash baseline).

The second step, the **measured runs**, is one
:class:`~repro.experiments.parallel.RunSpec` per scheme executed by
:func:`~repro.experiments.parallel.execute_spec`, which starts each scheme
from :func:`cached_training` — so every scheme sees identical arrivals
from the same trained start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.access_pattern import AccessPattern
from repro.core.cost_model import WorkloadStatistics
from repro.core.index_config import IndexConfiguration
from repro.core.selector import pad_patterns_to_k, select_exhaustive, select_hash_patterns
from repro.workloads.scenarios import PaperScenario, ScenarioParams

TRAINING_SEED_OFFSET = 1_000_003  # decorrelates training data from measured runs


@dataclass
class TrainingResult:
    """What quasi-training learned, per state."""

    frequencies: dict[str, dict[AccessPattern, float]] = field(default_factory=dict)
    configs: dict[str, IndexConfiguration] = field(default_factory=dict)

    def hash_patterns(self, k: int) -> dict[str, list[AccessPattern]]:
        """Per-state module sets: the k most frequent patterns, padded so a
        trial really starts with k modules (the paper's fixed trial size)."""
        out = {}
        for stream, freqs in self.frequencies.items():
            chosen = select_hash_patterns(freqs, k)
            jas = next(iter(freqs)).jas if freqs else None
            out[stream] = pad_patterns_to_k(jas, chosen, k) if jas is not None else chosen
        return out


def train_initial_state(scenario: PaperScenario, *, train_ticks: int = 120) -> TrainingResult:
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

    result = TrainingResult()
    domain_bits = scenario.domain_bits()
    for stream, stem in executor.stems.items():
        assessor = stem.tuner.assessor
        freqs = assessor.frequent_patterns(p.theta)
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
        result.configs[stream] = select_exhaustive(
            stats, stem.jas, p.bit_budget, scenario.cost_params
        )
    return result


#: Process-local quasi-training memo: ``(params, train_ticks)`` → result.
#: Training is deterministic in that key (a fixed seed offset), so
#: recomputing it per scheme/worker is pure waste — sweeps comparing k
#: schemes over one scenario used to pay k identical trainings.
_TRAINING_CACHE: dict[tuple[ScenarioParams, int], TrainingResult] = {}


def cached_training(params: ScenarioParams, train_ticks: int) -> TrainingResult:
    """:func:`train_initial_state` computed once per ``(params, train_ticks)``.

    The returned :class:`TrainingResult` is shared — callers must treat it
    as read-only (they all do: it is consumed via ``configs`` lookups and
    :meth:`TrainingResult.hash_patterns`, which builds fresh lists).
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
