"""Zero-dependency cost-unit ledger for engine runs.

The repository's central claim is that the cost-unit virtual clock is a
faithful stand-in for wall-clock throughput — but an aggregate clock cannot
say *which* operator, index, or phase spent the units.  This module is the
instrument: a :class:`MetricsRegistry` keeps the cost-unit ledger — one
sum per ``(component, stream, index_kind, phase)`` key.  Every other count
has one record elsewhere: totals and the per-tick throughput samples in
:class:`~repro.engine.stats.RunStats`, discrete facts (tuning outcomes,
shedding, degradation, death) as :class:`~repro.engine.tracing.EventLog`
events, index operations in the accountants.

Two invariants the rest of the stack relies on:

1. **Exact cost attribution.**  Every executor charge flows through
   :meth:`MetricsRegistry.charge`, which adds the *same float, in the same
   order* to the chronological :attr:`MetricsRegistry.cost_total` as the
   :class:`~repro.engine.resources.ResourceMeter` adds to ``total_spent`` —
   so the attributed total equals the virtual-clock total bit-for-bit (no
   double-counting, no leakage).  Per-series sums regroup the same charges
   and therefore agree with the total up to float associativity (≤ 1 ulp
   per charge).
2. **No observer effect.**  Attaching a registry never touches engine
   state, RNG streams, or the virtual clock; with no registry attached
   every hook is a no-op.  The observer-conformance matrix asserts
   byte-identical runs with metrics on and off.

Snapshots (:class:`RegistrySnapshot`) are plain frozen data — picklable
across process pools and rendered as JSONL by
:mod:`repro.engine.metrics_export`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COST_METRIC",
    "LabelPairs",
    "MetricsRegistry",
    "RegistrySnapshot",
    "SeriesSnapshot",
]

#: The cost-unit attribution series every executor charge lands in.
COST_METRIC = "cost_units_total"

#: One ledger key: ``(component, stream, index_kind, phase)``, ``None``
#: for a label the charge does not carry.
CostKey = tuple[str, str | None, str | None, str | None]

#: Sorted ``(name, value)`` pairs — a series' labels in a snapshot.
LabelPairs = tuple[tuple[str, str], ...]

#: The key's label names with their positions, sorted by name.
_SORTED_LABELS = sorted(
    (name, pos) for pos, name in enumerate(("component", "stream", "index_kind", "phase"))
)


def _key_labels(key: CostKey) -> LabelPairs:
    """A ledger key as label pairs: ``None`` dropped, sorted by name."""
    return tuple((name, key[pos]) for name, pos in _SORTED_LABELS if key[pos] is not None)


# --------------------------------------------------------------------- #
# snapshots


@dataclass(frozen=True)
class SeriesSnapshot:
    """One labelled cost series, frozen."""

    name: str
    labels: LabelPairs = ()
    value: float = 0.0


@dataclass(frozen=True)
class RegistrySnapshot:
    """Everything a registry measured, frozen for export and transport."""

    series: tuple[SeriesSnapshot, ...] = ()
    cost_total: float = 0.0

    def cost_by(self, *label_names: str) -> dict[tuple[str, ...], float]:
        """Cost units grouped by the requested labels (missing → '-')."""
        out: dict[tuple[str, ...], float] = {}
        for s in self.series:
            labels = dict(s.labels)
            key = tuple(labels.get(name, "-") for name in label_names)
            out[key] = out.get(key, 0.0) + s.value
        return out

    def series_total(self) -> float:
        """Sum of ``value`` across every series."""
        return sum(s.value for s in self.series)


# --------------------------------------------------------------------- #
# the registry


class MetricsRegistry:
    """The cost-unit ledger for one engine run.

    The engine writes it only through :meth:`charge`, one sum per
    ``(component, stream, index_kind, phase)`` key, created on first
    touch.  Engine runs are single-threaded, so the registry is
    single-writer and takes no lock.
    """

    def __init__(self) -> None:
        self._costs: dict[CostKey, float] = {}
        #: Chronological sum of every cost charge — bit-identical to the
        #: meter's ``total_spent`` because both add the same floats in the
        #: same order starting from 0.0.
        self.cost_total = 0.0

    def charge(
        self,
        cost: float,
        component: str,
        *,
        stream: str | None = None,
        index_kind: str | None = None,
        phase: str | None = None,
    ) -> None:
        """Attribute one virtual-clock charge to its ledger key.

        Callers pass the *same float* they spend on the meter, immediately
        after spending it, so :attr:`cost_total` replays the meter's exact
        accumulation sequence (the meter rejects a negative cost first).
        """
        self.cost_total += cost
        key = (component, stream, index_kind, phase)
        costs = self._costs
        costs[key] = costs.get(key, 0.0) + cost

    def snapshot(self) -> RegistrySnapshot:
        """Freeze the ledger (series sorted by labels for determinism)."""
        series = sorted(
            (
                SeriesSnapshot(COST_METRIC, _key_labels(key), value)
                for key, value in self._costs.items()
            ),
            key=lambda s: s.labels,
        )
        return RegistrySnapshot(series=tuple(series), cost_total=self.cost_total)
