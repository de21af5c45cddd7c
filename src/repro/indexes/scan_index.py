"""Unindexed state: every search is a full scan.

The degenerate baseline — what a STeM falls back to when no suitable access
module exists (Section I-A's ``sr2`` case generalised to every request).
Useful both as the floor in benchmarks and as the correctness oracle in
tests (its results define what every other index must return).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.indexes.base import Accountant, CostParams, SearchOutcome, StateIndex


class ScanIndex(StateIndex):
    """Stores items in arrival order; answers every probe by full scan."""

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
        self._items[id(item)] = item
        self.accountant.inserts += 1
        self.accountant.index_bytes += self.cost_params.bucket_slot_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        if id(item) not in self._items:
            raise KeyError("item was never inserted into this index")
        del self._items[id(item)]
        self.accountant.deletes += 1
        self.accountant.index_bytes -= self.cost_params.bucket_slot_bytes

    def contains(self, item: Mapping[str, object]) -> bool:
        return id(item) in self._items

    def search(self, ap: AccessPattern, values: Mapping[str, object]) -> SearchOutcome:
        matcher = self._probe_matcher(ap, values)
        examined = len(self._items)
        acct = self.accountant
        acct.tuples_examined += examined
        acct.buckets_visited += 1
        outcome = SearchOutcome(
            buckets_visited=1, tuples_examined=examined, used_full_scan=True
        )
        outcome.matches = matcher.select(self._items.values(), values)
        return outcome

    def search_batch(
        self, ap: AccessPattern, values_list: list[Mapping[str, object]]
    ) -> list[SearchOutcome]:
        """Vectorized :meth:`search`: every row scans the same state, so the
        per-row charges (one bucket visit, ``size`` examinations) are summed
        in one increment each and equal value rows share one selection."""
        outcomes: list[SearchOutcome] = []
        if not values_list:
            return outcomes
        matcher = self._probe_matcher(ap, values_list[0])
        attrs = matcher.attributes
        for values in values_list[1:]:
            for name in attrs:
                if name not in values:
                    raise KeyError(
                        f"probe values missing attribute {name!r} required by {ap!r}"
                    )
        n = len(values_list)
        examined = len(self._items)
        acct = self.accountant
        acct.tuples_examined += examined * n
        acct.buckets_visited += n
        pool = list(self._items.values())
        select = matcher.select
        cache: dict[tuple, list] = {}
        for values in values_list:
            vkey = tuple(values[a] for a in attrs)
            try:
                matches = cache.get(vkey)
            except TypeError:  # unhashable row: compute uncached, as serial would
                vkey = None
                matches = None
            if matches is None:
                matches = select(pool, values)
                if vkey is not None:
                    cache[vkey] = matches
            outcome = SearchOutcome(
                buckets_visited=1, tuples_examined=examined, used_full_scan=True
            )
            outcome.matches = matches
            outcomes.append(outcome)
        return outcomes
