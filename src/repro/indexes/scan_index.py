"""Unindexed state: every search is a full scan.

The degenerate baseline — what a STeM falls back to when no suitable access
module exists (Section I-A's ``sr2`` case generalised to every request).
Useful both as the floor in benchmarks and as the correctness oracle in
tests (its results define what every other index must return).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.probe_plan import compile_matcher
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex


class ScanIndex(StateIndex):
    """Stores items in arrival order; answers every probe by full scan."""

    unindexed = True

    def __init__(
        self,
        jas: JoinAttributeSet,
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        super().__init__(jas, accountant, cost_params)
        self._items: dict[int, Mapping[str, object]] = {}

    @property
    def size(self) -> int:
        return len(self._items)

    def insert(self, item: Mapping[str, object]) -> None:
        if id(item) in self._items:
            raise ValueError("item is already stored in this index")
        self._changed()
        self._items[id(item)] = item
        self.accountant.inserts += 1
        self.accountant.index_bytes += self.cost_params.bucket_slot_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        if id(item) not in self._items:
            raise KeyError("item was never inserted into this index")
        self._changed()
        del self._items[id(item)]
        self.accountant.deletes += 1
        self.accountant.index_bytes -= self.cost_params.bucket_slot_bytes

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        select = compile_matcher(ap).select
        items = self._items

        def probe_row(row: tuple) -> SearchOutcome:
            return SearchOutcome(select((items.values(),), row), 1, len(items), True)

        return 0, probe_row
