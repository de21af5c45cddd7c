"""Access-pattern workload generation for assessment-only experiments.

The full engine produces access patterns as a side effect of routing; the
assessment micro-benchmarks and unit experiments instead need *controlled*
pattern streams: draw patterns i.i.d. from a frequency distribution, drift
between distributions, or pollute a distribution with uniform exploration
noise (modelling the router's sub-optimal exploratory probes that motivate
statistics compaction).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from repro.core.access_pattern import AccessPattern, JoinAttributeSet, all_access_patterns
from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction, check_positive


def normalise(frequencies: Mapping[AccessPattern, float]) -> dict[AccessPattern, float]:
    """Scale a frequency table to sum to 1."""
    total = float(sum(frequencies.values()))
    if total <= 0:
        raise ValueError("frequencies must have positive total")
    return {ap: f / total for ap, f in frequencies.items()}


def zipf_distribution(
    jas: JoinAttributeSet,
    *,
    s: float = 1.2,
    seed: int | np.random.Generator | None = 0,
    include_full_scan: bool = False,
) -> dict[AccessPattern, float]:
    """A Zipf-shaped frequency table over all patterns, in random rank order.

    Rank ``r`` (1-based) gets weight ``r**-s``; which pattern holds which
    rank is a seeded shuffle, so different seeds give differently skewed
    workloads of identical shape.
    """
    check_positive("s", s)
    rng = make_rng(seed)
    patterns = all_access_patterns(jas, include_full_scan=include_full_scan)
    order = rng.permutation(len(patterns))
    weights = np.array([1.0 / (r + 1) ** s for r in range(len(patterns))])
    weights /= weights.sum()
    return {patterns[int(order[r])]: float(weights[r]) for r in range(len(patterns))}


def with_exploration_noise(
    frequencies: Mapping[AccessPattern, float],
    jas: JoinAttributeSet,
    noise: float,
    *,
    include_full_scan: bool = False,
) -> dict[AccessPattern, float]:
    """Mix ``noise`` mass of uniform-over-all-patterns into a distribution.

    Models the router's exploratory probes: a small fraction of requests
    spread evenly over *every* possible pattern, inflating the tail the
    compacting assessors must shed.
    """
    check_fraction("noise", noise)
    base = normalise(frequencies)
    patterns = all_access_patterns(jas, include_full_scan=include_full_scan)
    uniform = 1.0 / len(patterns)
    out = {ap: (1.0 - noise) * f for ap, f in base.items()}
    for ap in patterns:
        out[ap] = out.get(ap, 0.0) + noise * uniform
    return out


class PatternStream:
    """Seeded i.i.d. pattern draws from a (possibly phased) distribution.

    Parameters
    ----------
    phases:
        ``(n_requests, frequency table)`` segments, emitted in order.  A
        single-phase stream is the stationary case.
    """

    def __init__(
        self,
        phases: Sequence[tuple[int, Mapping[AccessPattern, float]]],
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = [(int(n), normalise(freqs)) for n, freqs in phases]
        for n, _freqs in self.phases:
            check_positive("phase length", n)
        self._rng = make_rng(seed)

    def __iter__(self) -> Iterator[AccessPattern]:
        for n, freqs in self.phases:
            patterns = list(freqs)
            probs = np.array([freqs[ap] for ap in patterns])
            draws = self._rng.choice(len(patterns), size=n, p=probs)
            for d in draws:
                yield patterns[int(d)]
