"""SRIA — Self Reliant Index Assessment (Section IV-C1).

The exact baseline assessor: a hash table (the *SRIA table*) mapping each
access pattern's binary representation ``BR(ap)`` to its request count.
Statistics are independent of each other ("self reliant") and nothing is ever
evicted, so memory grows with the number of *distinct* patterns observed —
up to ``2^N_ja - 1`` entries, exponential in the join-attribute count
(Section IV-B), which is exactly the pressure CSRIA and CDIA relieve.
"""

from __future__ import annotations

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment.base import FrequencyAssessor
from repro.utils.validation import check_fraction


class SRIATable:
    """The raw direct-addressed count table, reusable by DIA.

    Keys are ``BR(ap)`` bitmasks (ints); values are request counts.  Kept
    separate from the assessor so DIA can share the identical storage code
    path — the paper notes SRIA and DIA "share the same code base, use the
    same SRIA table".
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def increment(self, mask: int, by: int = 1) -> None:
        """Add ``by`` requests to pattern ``mask`` (creating it at 0)."""
        self._counts[mask] = self._counts.get(mask, 0) + by

    def count(self, mask: int) -> int:
        """Requests recorded for pattern ``mask`` (0 if never seen)."""
        return self._counts.get(mask, 0)

    def masks(self) -> list[int]:
        """All tracked pattern masks."""
        return list(self._counts)

    def items(self) -> list[tuple[int, int]]:
        """All (mask, count) pairs."""
        return list(self._counts.items())

    def clear(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, mask: int) -> bool:
        return mask in self._counts


class SRIA(FrequencyAssessor):
    """Exact access-pattern frequency assessment."""

    def __init__(self, jas: JoinAttributeSet) -> None:
        super().__init__(jas)
        self.table = SRIATable()

    def _record(self, ap: AccessPattern) -> None:
        self.table.increment(ap.mask)

    def _record_run(self, ap: AccessPattern, n: int) -> None:
        self.table.increment(ap.mask, n)

    def frequent_patterns(self, theta: float) -> dict[AccessPattern, float]:
        check_fraction("theta", theta)
        n = self._n_requests
        if n == 0:
            return {}
        cut = theta * n
        return {
            AccessPattern(self.jas, mask): count / n
            for mask, count in self.table.items()
            if count >= cut
        }

    def frequencies(self) -> dict[AccessPattern, float]:
        n = self._n_requests
        if n == 0:
            return {}
        return {AccessPattern(self.jas, mask): count / n for mask, count in self.table.items()}

    @property
    def entry_count(self) -> int:
        return len(self.table)

    def reset(self) -> None:
        self.table.clear()
        self._n_requests = 0
