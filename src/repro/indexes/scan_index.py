"""Unindexed state: every search is a full scan.

The degenerate baseline — what a STeM falls back to when no suitable access
module exists (Section I-A's ``sr2`` case generalised to every request).
Useful both as the floor in benchmarks and as the correctness oracle in
tests (its results define what every other index must return).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.access_pattern import AccessPattern
from repro.core.probe_plan import compile_matcher
from repro.indexes.base import RowProbe, SearchOutcome, StateIndex


class ScanIndex(StateIndex):
    """Stores items in arrival order; answers every probe by full scan."""

    unindexed = True
    probers_outlive_storage = True  # a prober reads the stored-item map live

    def _insert(self, item: Mapping[str, object], row: tuple) -> Mapping[str, object]:
        return item

    def _remove(self, item: Mapping[str, object], entry: object) -> None:
        pass

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        select = compile_matcher(ap).select
        items = self._entries

        def probe_row(row: tuple) -> SearchOutcome:
            return SearchOutcome(select((items.values(),), row), 1, len(items), True)

        return 0, probe_row
