"""Synthetic stream generation with drifting join selectivities (Section V).

The paper's synthetic data "adapt[s] the selectivities of joining one stream
to another over time", which makes the router change query paths and hence
the access-pattern mix each state sees.  Join-attribute values are drawn
from a **Zipf-skewed distribution** over a fixed domain; the skew exponent
follows a per-attribute *schedule* over time.  Two tuples match on an
attribute with probability ``Σ p_k²``, so a strongly skewed ("hot") phase
makes the join unselective (many matches per probe) while a mildly skewed
("cold") phase makes it selective — without shrinking the attribute's value
domain, which keeps indexing the attribute meaningful.

A schedule is a :class:`PiecewiseConstantSchedule`: explicit ``(length,
domain, skew)`` phases, optionally cyclic (one phase is a fixed domain and
skew).  :func:`rotating_hotspot_schedules` builds the default drift of the
paper scenario: at any time one attribute (rotating every ``phase_len``
ticks) is hot and the rest are cold, so the cheapest route keeps moving.

Both streams sharing a join attribute draw from the same schedule, which is
what makes them joinable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.engine.tuples import StreamTuple
from repro.utils.bitops import bits_needed
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_non_negative, check_positive


def zipf_weights(domain: int, skew: float) -> np.ndarray:
    """Normalised Zipf(``skew``) weights over ``domain`` values.

    ``skew = 0`` is uniform.  Weight of value ``k`` is ``(k+1)**-skew``.
    """
    check_positive("domain", domain)
    check_non_negative("skew", skew)
    if skew == 0.0:
        return np.full(domain, 1.0 / domain)
    w = np.arange(1, domain + 1, dtype=float) ** (-skew)
    return w / w.sum()


class PiecewiseConstantSchedule:
    """Value distribution of one join attribute over time: explicit
    ``(length_ticks, domain_size, skew)`` phases (one phase is a constant
    distribution).

    With ``cycle=True`` the phase list repeats forever; otherwise the last
    phase holds beyond the end.
    """

    def __init__(
        self, phases: Sequence[tuple[int, int, float]], *, cycle: bool = True
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        norm = []
        for length, size, skew in phases:
            check_positive("phase length", length)
            check_positive("phase size", size)
            check_non_negative("phase skew", skew)
            norm.append((int(length), int(size), float(skew)))
        self.phases = tuple(norm)
        self.cycle = cycle
        self._period = sum(l for l, _s, _z in self.phases)

    def _phase_at(self, tick: int) -> tuple[int, int, float]:
        if tick < 0:
            raise ValueError(f"tick must be >= 0, got {tick}")
        t = tick % self._period if self.cycle else min(tick, self._period - 1)
        for phase in self.phases:
            if t < phase[0]:
                return phase
            t -= phase[0]
        return self.phases[-1]

    def domain_size(self, tick: int) -> int:
        """Number of distinct values the attribute draws from at ``tick``."""
        return self._phase_at(tick)[1]

    def skew(self, tick: int) -> float:
        """Zipf exponent at ``tick`` (0 = uniform)."""
        return self._phase_at(tick)[2]

    @property
    def max_domain_size(self) -> int:
        """Largest domain size the schedule ever produces (for entropy caps)."""
        return max(size for _l, size, _z in self.phases)


def diurnal_burst_modulation(
    *,
    period: int = 200,
    amplitude: float = 0.5,
    burst_every: int = 137,
    burst_len: int = 8,
    burst_factor: float = 3.0,
):
    """A rate-modulation function with a smooth daily cycle plus bursts.

    The synthetic stand-in for sensor-network traces: load follows
    ``1 + amplitude*sin(2π·tick/period)`` and every ``burst_every`` ticks an
    event burst multiplies arrivals by ``burst_factor`` for ``burst_len``
    ticks.  Deterministic, so runs stay reproducible.
    """
    check_positive("period", period)
    check_non_negative("amplitude", amplitude)
    check_positive("burst_every", burst_every)
    check_positive("burst_len", burst_len)
    check_positive("burst_factor", burst_factor)
    two_pi = 2.0 * np.pi

    def modulation(stream: str, tick: int) -> float:
        base = 1.0 + amplitude * float(np.sin(two_pi * tick / period))
        if tick % burst_every < burst_len:
            base *= burst_factor
        return base

    return modulation


def rotating_hotspot_schedules(
    attributes: Sequence[str],
    *,
    phase_len: int,
    domain: int,
    hot_skew: float,
    cold_skew: float,
) -> dict[str, PiecewiseConstantSchedule]:
    """One schedule per attribute; the hot slot rotates round-robin.

    During phase ``p`` (ticks ``[p*phase_len, (p+1)*phase_len)``), attribute
    ``attributes[p % n]`` draws with exponent ``hot_skew`` (joins on it
    explode) while the others use ``cold_skew`` (selective).  The rotation is
    deterministic, so runs are exactly reproducible and every attribute
    spends equal time hot.
    """
    check_positive("phase_len", phase_len)
    n = len(attributes)
    if n == 0:
        raise ValueError("need at least one attribute")
    out: dict[str, PiecewiseConstantSchedule] = {}
    for i, attr in enumerate(attributes):
        phases = [
            (phase_len, domain, hot_skew if p == i else cold_skew) for p in range(n)
        ]
        out[attr] = PiecewiseConstantSchedule(phases, cycle=True)
    return out


class SyntheticStreamGenerator:
    """Seeded arrival generator for a set of streams.

    Parameters
    ----------
    stream_attributes:
        ``stream name -> attribute names`` its tuples carry.
    schedules:
        ``attribute -> PiecewiseConstantSchedule``.  Attributes shared by
        several streams (join attributes) share one schedule.
    rates:
        ``stream -> tuples per tick`` (``λ_d``), the *base* rate.
    rate_modulation:
        Optional ``(stream, tick) -> multiplier``; the effective arrival
        count is ``round(base * multiplier)``.  Models bursty or diurnal
        sources (see :func:`diurnal_burst_modulation`).
    seed:
        Master seed; each stream derives an independent child stream.
    """

    def __init__(
        self,
        stream_attributes: Mapping[str, Sequence[str]],
        schedules: Mapping[str, PiecewiseConstantSchedule],
        rates: Mapping[str, int],
        *,
        rate_modulation=None,
        seed: int = 0,
    ) -> None:
        self.stream_attributes = {s: tuple(attrs) for s, attrs in stream_attributes.items()}
        for stream, attrs in self.stream_attributes.items():
            for attr in attrs:
                if attr not in schedules:
                    raise ValueError(f"no domain schedule for attribute {attr!r} of {stream!r}")
        unknown = set(rates) - set(self.stream_attributes)
        if unknown:
            raise ValueError(f"rates given for unknown streams: {sorted(unknown)}")
        for stream in self.stream_attributes:
            if stream not in rates:
                raise ValueError(f"no arrival rate for stream {stream!r}")
            check_positive(f"rate of {stream!r}", rates[stream])
        self.schedules = dict(schedules)
        self.rates = {s: int(r) for s, r in rates.items()}
        self.rate_modulation = rate_modulation
        self.seed = seed
        self._rngs = {
            s: make_rng(derive_seed(seed, f"stream:{s}")) for s in self.stream_attributes
        }
        self._weight_cache: dict[tuple[int, float], np.ndarray] = {}

    def _weights(self, domain: int, skew: float) -> np.ndarray | None:
        """Cached Zipf weights; None signals a uniform draw."""
        if skew == 0.0:
            return None
        key = (domain, skew)
        w = self._weight_cache.get(key)
        if w is None:
            w = zipf_weights(domain, skew)
            self._weight_cache[key] = w
        return w

    def arrivals(self, tick: int) -> list[StreamTuple]:
        """All tuples arriving at ``tick``, stream by stream."""
        out: list[StreamTuple] = []
        for stream, attrs in self.stream_attributes.items():
            rng = self._rngs[stream]
            rate = self.rates[stream]
            if self.rate_modulation is not None:
                rate = max(int(round(rate * self.rate_modulation(stream, tick))), 0)
            if rate == 0:
                continue
            columns: dict[str, np.ndarray] = {}
            for attr in attrs:
                sched = self.schedules[attr]
                domain = sched.domain_size(tick)
                weights = self._weights(domain, sched.skew(tick))
                if weights is None:
                    columns[attr] = rng.integers(domain, size=rate)
                else:
                    columns[attr] = rng.choice(domain, size=rate, p=weights)
            for i in range(rate):
                values = {attr: int(col[i]) for attr, col in columns.items()}
                out.append(StreamTuple(stream, tick, values))
        return out

    def domain_bits(self) -> dict[str, int]:
        """Per-attribute value entropy caps for the cost model."""
        return {a: bits_needed(s.max_domain_size) for a, s in self.schedules.items()}

    def __call__(self, tick: int) -> list[StreamTuple]:
        return self.arrivals(tick)
