"""Per-attribute inverted-list index — an extra baseline design point.

Not in the paper, but a natural "what about the obvious third design"
comparator between the multi-hash access modules and the bit-address index:
one exact inverted list per join attribute (value → stored tuples).  A probe
intersects the lists of its pattern's attributes, smallest first.

Trade-offs relative to the paper's designs, measurable with
``benchmarks/test_ablation_index_designs.py``:

- serves **every** access pattern with exact (collision-free) lists — no
  wildcard bucket visits, no unsuitable-module full scans;
- but pays one posting per tuple *per attribute* in memory and maintenance
  (like a hash module set with k = N_A fixed), and multi-attribute probes
  pay the intersection walk;
- and it cannot be tuned: there is nothing configuration-shaped to adapt,
  so its costs are workload-independent — which is exactly why the paper's
  tunable single-structure index wins under resource pressure.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.probe_plan import compile_matcher
from repro.indexes.base import (
    EXACT_KEY_TYPES,
    Accountant,
    CostParams,
    RowProbe,
    SearchOutcome,
    StateIndex,
    is_exact_key,
)


class InvertedListIndex(StateIndex):
    """One exact inverted list per join attribute."""

    def __init__(
        self,
        jas: JoinAttributeSet,
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        super().__init__(jas, accountant, cost_params)
        self._items: dict[int, Mapping[str, object]] = {}
        self._lists: dict[str, dict[object, dict[int, Mapping[str, object]]]] = {
            name: {} for name in jas.names
        }
        # JAS positions that have stored a value outside EXACT_KEY_TYPES
        # (grow-only).
        self._inexact = 0

    @property
    def size(self) -> int:
        return len(self._items)

    def insert(self, item: Mapping[str, object]) -> None:
        if id(item) in self._items:
            raise ValueError("item is already stored in this index")
        self._changed()
        self._items[id(item)] = item
        acct = self.accountant
        acct.inserts += 1
        acct.index_bytes += self.cost_params.bucket_slot_bytes
        for pos, name in enumerate(self.jas.names):
            value = item[name]
            if type(value) not in EXACT_KEY_TYPES:
                self._inexact |= 1 << pos
            self._lists[name].setdefault(value, {})[id(item)] = item
            acct.hashes += 1
            acct.index_bytes += self.cost_params.index_entry_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        if id(item) not in self._items:
            raise KeyError("item was never inserted into this index")
        self._changed()
        del self._items[id(item)]
        acct = self.accountant
        acct.deletes += 1
        acct.index_bytes -= self.cost_params.bucket_slot_bytes
        for name in self.jas.names:
            postings = self._lists[name].get(item[name])
            if postings is not None:
                postings.pop(id(item), None)
                if not postings:
                    del self._lists[name][item[name]]
            acct.hashes += 1
            acct.index_bytes -= self.cost_params.index_entry_bytes

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        matcher = compile_matcher(ap)
        attributes = matcher.attributes
        items = self._items
        if not attributes:

            def probe_row(row: tuple) -> SearchOutcome:
                return SearchOutcome(list(items.values()), 1, len(items), True)

            return 0, probe_row

        lists = [self._lists[name] for name in attributes]
        select = matcher.select
        # Posting lists are keyed by value, which agrees with ``==`` only
        # for exact keys over lists that have never held another type.
        exact_lists = not ap.mask & self._inexact

        def probe_row(row: tuple) -> SearchOutcome:
            # Fetch each attribute's posting list; intersect smallest-first.
            postings = sorted(
                (plist.get(value, {}) for plist, value in zip(lists, row)), key=len
            )
            base = postings[0]
            rest = postings[1:]
            # Walking the smallest list and probing the others costs one
            # examination per base entry (each membership check is a hash probe).
            if rest:
                matches = [
                    item for key, item in base.items() if all(key in p for p in rest)
                ]
            else:
                matches = list(base.values())
            if not (exact_lists and is_exact_key(row)):
                matches = select((matches,), row)
            return SearchOutcome(matches, len(postings), len(base))

        # One hash per attribute fetches its posting list.
        return len(attributes), probe_row

    def describe(self) -> str:
        return f"InvertedListIndex(jas={list(self.jas.names)}, size={len(self._items)})"
