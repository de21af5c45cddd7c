"""CDIA — Compact Dependent Index Assessment (Section IV-D2).

DIA with hierarchical-heavy-hitter compaction (modelled after Cormode et
al., paper ref. [13]): at segment boundaries, any *leaf* of the statistics
lattice whose ``count + delta`` falls below the current segment id is
**combined into a parent** — a pattern one attribute more general, i.e. one
that provides a search benefit to it (Definition 1) — instead of being
deleted.  Two combination strategies (Section IV-D2's "CDIA Combination
Methods"):

- ``random`` — a uniformly random parent;
- ``highest_count`` — the parent with the largest count so far, on the
  intuition that it has the best chance of clearing θ at final-results time.

The final-results pass walks the tracked nodes bottom-up, rolling any node
below the threshold into a parent before judging the parent, so mass from
several individually-infrequent specializations can surface a shared
generalization (the Table II example: ``<A,B,*>`` at 4% merges into
``<A,*,*>`` at 4%, and the combined 8% clears θ=5%).

Like SRIA, DIA and CSRIA, the table is keyed by ``BR(ap)``: the sketch sees
``ap.mask`` ints and the lattice as bit operations on them, and a mask
becomes an :class:`AccessPattern` again only when the assessor reports.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment.base import FrequencyAssessor
from repro.sketches.hierarchical import HHHEntry, HierarchicalHeavyHitters
from repro.utils.bitops import mask_to_indices
from repro.utils.validation import check_fraction


def _parents(mask: int) -> tuple[int, ...]:
    """``AccessPattern.parents`` on ``BR(ap)``: one attribute removed, in
    the same order."""
    return tuple(mask & ~(1 << i) for i in mask_to_indices(mask))


def _is_ancestor(a: int, b: int) -> bool:
    """``AccessPattern.is_proper_generalization_of`` on ``BR(ap)``."""
    return a & b == a and a != b


class CDIA(FrequencyAssessor):
    """Compacted DIA: hierarchical heavy hitters over the benefit lattice.

    Parameters
    ----------
    jas:
        The state's join-attribute set.
    epsilon:
        Maximum frequency error; segment width is ``ceil(1/epsilon)``.
    combine:
        Parent-selection strategy: ``"random"`` or ``"highest_count"``.
    seed:
        RNG seed (only consulted by the random strategy).
    """

    def __init__(
        self,
        jas: JoinAttributeSet,
        epsilon: float,
        *,
        combine: str = "highest_count",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(jas)
        self.epsilon = epsilon
        self.combine = combine
        self._seed = seed
        self._sketch = self._make_sketch()

    def _make_sketch(self) -> HierarchicalHeavyHitters:
        return HierarchicalHeavyHitters(
            self.epsilon,
            parents=_parents,
            level=int.bit_count,
            is_ancestor=_is_ancestor,
            combine=self.combine,
            seed=self._seed,
        )

    def _record(self, ap: AccessPattern) -> None:
        self._sketch.offer(ap.mask)

    def _record_run(self, ap: AccessPattern, n: int) -> None:
        self._sketch.offer_run(ap.mask, n)

    def frequent_patterns(self, theta: float) -> dict[AccessPattern, float]:
        check_fraction("theta", theta)
        jas = self.jas
        return {AccessPattern(jas, m): f for m, f in self._sketch.frequent_items(theta).items()}

    def frequencies(self) -> dict[AccessPattern, float]:
        n = self._n_requests
        if n == 0:
            return {}
        return {ap: entry.count / n for ap, entry in self.entries().items()}

    def entries(self) -> dict[AccessPattern, HHHEntry]:
        """Raw tracked (pattern, count+delta) entries (diagnostics)."""
        jas = self.jas
        return {AccessPattern(jas, m): entry for m, entry in self._sketch.entries().items()}

    @property
    def entry_count(self) -> int:
        return len(self._sketch)

    @property
    def current_segment_id(self) -> int:
        """The compaction segment currently being filled (``s_id``)."""
        return self._sketch.current_segment_id

    def reset(self) -> None:
        self._sketch = self._make_sketch()
        self._n_requests = 0

    def describe(self) -> str:
        return (
            f"CDIA(combine={self.combine!r}, eps={self.epsilon}, "
            f"entries={self.entry_count})"
        )
