"""The assessment interface shared by SRIA, CSRIA, DIA, and CDIA.

An assessor watches the stream of search requests hitting one state and can
be asked, at tuning time, which access patterns are *frequent* (above the
preset threshold θ) together with their estimated frequencies.  The tuner
feeds those frequencies to the selector, resets the assessor, and starts the
next assessment window.
"""

from __future__ import annotations

import abc

from repro.core.access_pattern import AccessPattern, JoinAttributeSet


class FrequencyAssessor(abc.ABC):
    """Collects access-pattern statistics for one state."""

    def __init__(self, jas: JoinAttributeSet) -> None:
        self.jas = jas
        self._n_requests = 0

    @property
    def n_requests(self) -> int:
        """Search requests recorded since the last reset (``λ_r`` so far)."""
        return self._n_requests

    def record(self, ap: AccessPattern) -> None:
        """Record one search request using pattern ``ap``."""
        # Identity first: the engine reuses one JAS object per stream, so
        # the structural comparison is a per-probe cost only on foreign input.
        if ap.jas is not self.jas and ap.jas != self.jas:
            raise ValueError(f"pattern {ap!r} ranges over a different JAS than this assessor")
        self._n_requests += 1
        self._record(ap)

    def record_run(self, ap: AccessPattern, n: int) -> None:
        """Record ``n`` consecutive search requests using pattern ``ap``.

        Identical to ``n`` :meth:`record` calls; a route hop's probes all
        share one pattern, so the engine records them as one run.
        """
        if n <= 0:
            return
        if ap.jas is not self.jas and ap.jas != self.jas:
            raise ValueError(f"pattern {ap!r} ranges over a different JAS than this assessor")
        self._n_requests += n
        self._record_run(ap, n)

    @abc.abstractmethod
    def _record(self, ap: AccessPattern) -> None:
        """Method-specific statistics update for one request."""

    def _record_run(self, ap: AccessPattern, n: int) -> None:
        """Statistics update for ``n`` consecutive requests (default: the loop)."""
        for _ in range(n):
            self._record(ap)

    @abc.abstractmethod
    def frequent_patterns(self, theta: float) -> dict[AccessPattern, float]:
        """Patterns whose (estimated) frequency reaches ``theta``.

        Exact methods return exactly the patterns with ``f_ap >= theta``;
        compacted methods return every pattern with true (CSRIA) or
        rolled-up (CDIA) frequency ``>= theta`` and possibly a few within
        ``epsilon`` below it.
        """

    @abc.abstractmethod
    def frequencies(self) -> dict[AccessPattern, float]:
        """Every tracked pattern's estimated frequency (diagnostics)."""

    @property
    @abc.abstractmethod
    def entry_count(self) -> int:
        """Statistics entries currently stored (memory-pressure proxy)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Discard all statistics and begin a fresh assessment window."""

    def describe(self) -> str:
        """One-line description for logs and reports."""
        return f"{type(self).__name__}(jas={list(self.jas.names)}, entries={self.entry_count})"
