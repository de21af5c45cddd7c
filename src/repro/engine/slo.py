"""Per-tuple latency tracking, SLO objectives, and burn-rate monitoring.

The virtual clock measures *cost*; this module measures *waiting*.  Every
request tuple is stamped with its arrival tick when it enters the backlog
(``StreamTuple.arrived_at``), and the route/probe stage reports the
arrival→emit latency (in ticks) to an attached :class:`LatencyTracker` the
moment the tuple finishes processing.  Because each joined result is
produced exactly once, by the probe sequence of its youngest member, the
latency of a *result* is the latency of its anchor request — so tracking
per-request latency weighted by output count gives exact per-result
latency accounting with O(1) work per tuple.

Three layers build on the tracker:

1. **Quantiles.**  The tracker keeps fixed-bucket histograms (aggregate
   and per-stream) answered through the same deterministic interpolating
   estimator as :meth:`repro.engine.metrics.Histogram.quantile`, plus an
   exact bounded reservoir of the first N observations for validating the
   estimator's ±bucket-width error claim.
2. **SLOs.**  An :class:`SloSpec` states an objective — "p95 latency ≤ 8
   ticks over a 120-tick window" — and an :class:`SloMonitor` evaluates it
   with SRE-style multi-window error-budget burn rates: a breach fires
   only when both the fast and the slow window burn faster than the
   threshold, so single-tick blips don't page but sustained regressions
   do.  Breaches and recoveries are emitted as ``slo_breach`` /
   ``slo_recovered`` events through the :class:`~repro.engine.tracing.EventLog`.
3. **Closed loop.**  A spec marked ``degrade_on_breach`` asks the kernel's
   SLO stage to invoke the existing
   :class:`~repro.engine.resources.DegradationPolicy` shedding path on
   breach, turning the observability plane into a latency-driven
   backpressure valve.

Everything here is deterministic.  With no tracker attached every hook is
a no-op — the golden corpus asserts zero observer effect.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine.metrics import quantile_from_buckets

__all__ = [
    "LATENCY_BUCKETS",
    "SLO_BREACH",
    "SLO_RECOVERED",
    "LatencySnapshot",
    "LatencyTracker",
    "SloMonitor",
    "SloSpec",
]

#: Default latency bucket boundaries (ticks, ``le`` semantics).  Zero is a
#: real bucket: a request processed in its arrival tick has latency 0.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

#: Event kinds this module emits (members of ``tracing.EVENT_KINDS``).
SLO_BREACH = "slo_breach"
SLO_RECOVERED = "slo_recovered"


def _bucket_index(boundaries: tuple[float, ...], value: float) -> int:
    """First bucket whose upper bound admits ``value`` (overflow = last)."""
    for i, bound in enumerate(boundaries):
        if value <= bound:
            return i
    return len(boundaries)


class LatencyTracker:
    """Accumulates arrival→emit latencies for one kernel's requests.

    The tracker is pure bookkeeping — it never touches engine state, RNG
    streams, or the virtual clock, so arming it cannot perturb a run.  All
    counters are integers and all updates are order-independent sums.

    ``threshold`` arms violation counting: every observation (including
    shed tuples, which by definition missed their latency target) above
    the threshold consumes error budget.  Without a threshold the tracker
    still measures, it just cannot feed an :class:`SloMonitor`.
    """

    def __init__(
        self,
        boundaries: Sequence[float] = LATENCY_BUCKETS,
        *,
        reservoir_capacity: int = 4096,
        threshold: float | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"boundaries must be strictly increasing, got {bounds}")
        if reservoir_capacity < 0:
            raise ValueError(f"reservoir capacity must be >= 0, got {reservoir_capacity}")
        self.boundaries = bounds
        self.threshold = None if threshold is None else float(threshold)
        # Aggregate + per-stream fixed-bucket histograms (non-cumulative).
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.per_stream: dict[str, list[int]] = {}
        self.total = 0.0
        self.count = 0
        # Exact validation reservoir: the *first* N observations, kept in
        # arrival order — deterministic, unlike sampling.
        self.reservoir_capacity = reservoir_capacity
        self.reservoir: list[float] = []
        self.reservoir_dropped = 0
        # SLO accounting (cumulative; the monitor diffs per tick).
        self.observed = 0
        self.violations = 0
        # Result-weighted accounting: each joined result inherits its
        # anchor request's latency.
        self.results = 0
        self.results_latency_total = 0.0
        # Shed tuples: they never emitted, so they are not completion
        # latencies — but they consumed budget waiting and then failed.
        self.shed = 0
        self.shed_by_stream: dict[str, int] = {}

    def observe(self, stream: str, latency: float, outputs: int = 0) -> None:
        """Record one processed request's arrival→emit latency."""
        i = _bucket_index(self.boundaries, latency)
        self.bucket_counts[i] += 1
        per = self.per_stream.get(stream)
        if per is None:
            per = self.per_stream[stream] = [0] * (len(self.boundaries) + 1)
        per[i] += 1
        self.total += latency
        self.count += 1
        if len(self.reservoir) < self.reservoir_capacity:
            self.reservoir.append(latency)
        else:
            self.reservoir_dropped += 1
        self.observed += 1
        if self.threshold is not None and latency > self.threshold:
            self.violations += 1
        if outputs:
            self.results += outputs
            self.results_latency_total += latency * outputs

    def observe_shed(self, stream: str, waited: float) -> None:
        """Record a request shed from the backlog after waiting ``waited`` ticks.

        Shed requests do not enter the completion histograms (they never
        emitted) but they *do* consume error budget: a request dropped
        under pressure failed its objective by construction.
        """
        self.shed += 1
        self.shed_by_stream[stream] = self.shed_by_stream.get(stream, 0) + 1
        self.observed += 1
        if self.threshold is not None:
            self.violations += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """Aggregate ``(le, cumulative_count)`` pairs ending ``(+Inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float | None:
        """Interpolated quantile over the aggregate histogram."""
        return quantile_from_buckets(self.cumulative(), q)

    def snapshot(self) -> "LatencySnapshot":
        """Freeze the tracker (picklable, exportable)."""
        running = 0
        buckets: list[tuple[float, int]] = []
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            buckets.append((bound, running))
        buckets.append((float("inf"), self.count))
        per_stream = tuple(
            (stream, tuple(counts))
            for stream, counts in sorted(self.per_stream.items())
        )
        return LatencySnapshot(
            boundaries=self.boundaries,
            buckets=tuple(buckets),
            total=self.total,
            count=self.count,
            per_stream=per_stream,
            reservoir=tuple(self.reservoir),
            reservoir_dropped=self.reservoir_dropped,
            threshold=self.threshold,
            observed=self.observed,
            violations=self.violations,
            results=self.results,
            results_latency_total=self.results_latency_total,
            shed=self.shed,
            shed_by_stream=tuple(sorted(self.shed_by_stream.items())),
        )


@dataclass(frozen=True)
class LatencySnapshot:
    """A frozen latency measurement: histograms, reservoir, SLO counters.

    ``buckets`` are cumulative aggregate ``(le, count)`` pairs (Prometheus
    convention, ``+Inf``-terminated); ``per_stream`` carries *non*-
    cumulative per-bucket counts per stream.
    """

    boundaries: tuple[float, ...]
    buckets: tuple[tuple[float, int], ...]
    total: float
    count: int
    per_stream: tuple[tuple[str, tuple[int, ...]], ...] = ()
    reservoir: tuple[float, ...] = ()
    reservoir_dropped: int = 0
    threshold: float | None = None
    observed: int = 0
    violations: int = 0
    results: int = 0
    results_latency_total: float = 0.0
    shed: int = 0
    shed_by_stream: tuple[tuple[str, int], ...] = ()

    def quantile(self, q: float) -> float | None:
        """Interpolated quantile estimate (±1 bucket width)."""
        return quantile_from_buckets(self.buckets, q)

    def exact_quantile(self, q: float) -> float | None:
        """Exact quantile from the reservoir, or ``None`` if it overflowed.

        Linear interpolation between order statistics at position
        ``q * (n - 1)`` — only trustworthy while the reservoir holds every
        observation, hence the ``None`` once anything was dropped.
        """
        if not self.reservoir or self.reservoir_dropped:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self.reservoir)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    def stream_quantile(self, stream: str, q: float) -> float | None:
        """Interpolated quantile for one stream's histogram."""
        for name, counts in self.per_stream:
            if name == stream:
                running = 0
                buckets: list[tuple[float, int]] = []
                for bound, n in zip(self.boundaries, counts):
                    running += n
                    buckets.append((bound, running))
                buckets.append((float("inf"), running + counts[-1]))
                return quantile_from_buckets(buckets, q)
        return None

    @property
    def mean(self) -> float | None:
        """Mean completion latency in ticks."""
        return self.total / self.count if self.count else None

    @property
    def violation_fraction(self) -> float:
        """Lifetime fraction of observations that broke the threshold."""
        return self.violations / self.observed if self.observed else 0.0

    def to_records(self) -> list[dict[str, object]]:
        """Plain-dict records for the shared JSONL export path."""
        records: list[dict[str, object]] = [
            {
                "record": "latency",
                "scope": "aggregate",
                "count": self.count,
                "mean": self.mean,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                "observed": self.observed,
                "violations": self.violations,
                "shed": self.shed,
                "results": self.results,
                "threshold": self.threshold,
            }
        ]
        for stream, _counts in self.per_stream:
            records.append(
                {
                    "record": "latency",
                    "scope": "stream",
                    "stream": stream,
                    "p50": self.stream_quantile(stream, 0.50),
                    "p95": self.stream_quantile(stream, 0.95),
                    "p99": self.stream_quantile(stream, 0.99),
                }
            )
        return records


_SPEC_RE = re.compile(
    r"^p(?P<q>\d{1,2}(?:\.\d+)?)"
    r"<=(?P<threshold>\d+(?:\.\d+)?)"
    r"@(?P<window>\d+)"
    r"(?:/(?P<fast>\d+))?"
    r"(?P<degrade>:degrade)?$"
)


@dataclass(frozen=True)
class SloSpec:
    """A latency objective: "p``q`` latency ≤ ``threshold`` over ``window``".

    ``quantile`` is the objective's percentile as a fraction (0.95 for
    p95), which fixes the **error budget** at ``1 - quantile``: a p95
    objective tolerates 5% of observations above the threshold.  The
    monitor evaluates the budget over two sliding windows — ``window``
    (slow) and ``fast_window`` (defaults to ``window // 12``, the classic
    1h/5m ratio) — and declares a breach only when both burn at or above
    ``burn_threshold`` (1.0 = consuming budget exactly as fast as the
    objective allows).

    The string form accepted by :meth:`parse` and the CLI is
    ``p95<=8@120``, optionally ``/10`` for an explicit fast window and a
    trailing ``:degrade`` to arm the closed-loop shedding response.
    """

    quantile: float
    threshold_ticks: float
    window: int
    fast_window: int | None = None
    burn_threshold: float = 1.0
    degrade_on_breach: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"SLO quantile must be in (0, 1), got {self.quantile}")
        if self.threshold_ticks < 0:
            raise ValueError(f"SLO threshold must be >= 0, got {self.threshold_ticks}")
        if self.window < 1:
            raise ValueError(f"SLO window must be >= 1 tick, got {self.window}")
        if self.fast_window is not None and not 0 < self.fast_window <= self.window:
            raise ValueError(
                f"fast window must be in [1, window], got {self.fast_window}"
            )
        if self.burn_threshold <= 0:
            raise ValueError(f"burn threshold must be > 0, got {self.burn_threshold}")

    @property
    def error_budget(self) -> float:
        """Tolerated violating fraction (0.05 for a p95 objective)."""
        return 1.0 - self.quantile

    @property
    def fast(self) -> int:
        """The effective fast window (explicit, or ``window // 12``)."""
        return self.fast_window if self.fast_window is not None else max(1, self.window // 12)

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        """Parse ``p95<=8@120``, ``p99<=16@240/20``, ``p95<=8@120:degrade``."""
        m = _SPEC_RE.match(text.strip())
        if m is None:
            raise ValueError(
                f"bad SLO spec {text!r}; expected p<q><=<ticks>@<window>"
                "[/<fast_window>][:degrade], e.g. p95<=8@120"
            )
        percentile = float(m.group("q"))
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"SLO percentile must be in (0, 100), got {percentile}")
        return cls(
            quantile=percentile / 100.0,
            threshold_ticks=float(m.group("threshold")),
            window=int(m.group("window")),
            fast_window=int(m.group("fast")) if m.group("fast") else None,
            degrade_on_breach=m.group("degrade") is not None,
        )

    def describe(self) -> str:
        """Round-trippable spec string (``parse(describe()) == self``)."""
        pct = self.quantile * 100.0
        q = f"{pct:g}"
        t = f"{self.threshold_ticks:g}"
        out = f"p{q}<={t}@{self.window}"
        if self.fast_window is not None:
            out += f"/{self.fast_window}"
        if self.degrade_on_breach:
            out += ":degrade"
        return out


class SloMonitor:
    """Multi-window burn-rate evaluation of one :class:`SloSpec`.

    Each tick the SLO stage calls :meth:`end_tick` with the armed tracker;
    the monitor diffs the tracker's cumulative ``observed``/``violations``
    counters into a per-tick delta, slides its window, and compares the
    burn rates.  **Burn rate** is the violating fraction over a window
    divided by the error budget: 1.0 means the objective is consuming its
    budget exactly as fast as allowed, >1.0 means it will exhaust early.
    A breach requires *both* windows hot (sustained, not a blip); recovery
    requires only the fast window cool (fast to stand down).
    """

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self._window: deque[tuple[int, int]] = deque(maxlen=spec.window)
        self._last_observed = 0
        self._last_violations = 0
        self.breached = False
        self.breaches = 0
        self.recoveries = 0
        #: ``(tick, "breach" | "recover")`` state transitions, in order.
        self.transitions: list[tuple[int, str]] = []
        # Lifetime totals for budget accounting.
        self._observed_total = 0
        self._violations_total = 0

    def end_tick(self, tick: int, tracker: LatencyTracker) -> str | None:
        """Fold this tick's deltas in; returns ``"breach"``/``"recover"``/None."""
        observed = tracker.observed - self._last_observed
        violations = tracker.violations - self._last_violations
        self._last_observed = tracker.observed
        self._last_violations = tracker.violations
        self._observed_total += observed
        self._violations_total += violations
        self._window.append((observed, violations))
        fast_burn = self.burn_rate(self.spec.fast)
        slow_burn = self.burn_rate(self.spec.window)
        threshold = self.spec.burn_threshold
        if not self.breached:
            if fast_burn >= threshold and slow_burn >= threshold:
                self.breached = True
                self.breaches += 1
                self.transitions.append((tick, "breach"))
                return "breach"
        elif fast_burn < threshold:
            self.breached = False
            self.recoveries += 1
            self.transitions.append((tick, "recover"))
            return "recover"
        return None

    def burn_rate(self, window: int) -> float:
        """Error-budget burn over the last ``window`` ticks (0.0 if idle)."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        entries = list(self._window)[-window:]
        observed = sum(o for o, _ in entries)
        if observed == 0:
            return 0.0
        violating = sum(v for _, v in entries) / observed
        return violating / self.spec.error_budget

    def burn_rates(self) -> dict[int, float]:
        """Current burn rate per evaluation window (fast and slow)."""
        windows = sorted({self.spec.fast, self.spec.window})
        return {w: self.burn_rate(w) for w in windows}

    def budget_consumed(self) -> float:
        """Lifetime burn: violating fraction over the whole run ÷ budget."""
        if self._observed_total == 0:
            return 0.0
        return (self._violations_total / self._observed_total) / self.spec.error_budget
