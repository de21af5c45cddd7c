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
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex


class InvertedListIndex(StateIndex):
    """One exact inverted list per join attribute."""

    # A prober reads the lists and the stored-item map live.
    probers_outlive_storage = True

    def __init__(
        self,
        jas: JoinAttributeSet,
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        super().__init__(jas, accountant, cost_params)
        self._lists: dict[str, dict[object, dict[int, Mapping[str, object]]]] = {
            name: {} for name in jas.names
        }

    def _insert(self, item: Mapping[str, object], row: tuple) -> Mapping[str, object]:
        iid = id(item)
        for postings, value in zip(self._lists.values(), row):
            postings.setdefault(value, {})[iid] = item
        # One hash and one posting per attribute.
        acct = self.accountant
        acct.hashes += len(row)
        acct.index_bytes += len(row) * self.cost_params.index_entry_bytes
        return item

    def _remove(self, item: Mapping[str, object], entry: object) -> None:
        iid = id(item)
        for name, plist in self._lists.items():
            value = item[name]
            postings = plist[value]
            del postings[iid]
            if not postings:
                del plist[value]
        acct = self.accountant
        acct.hashes += len(self._lists)
        acct.index_bytes -= len(self._lists) * self.cost_params.index_entry_bytes

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        matcher = compile_matcher(ap)
        attributes = matcher.attributes
        items = self._entries
        if not attributes:

            def probe_row(row: tuple) -> SearchOutcome:
                return SearchOutcome(list(items.values()), 1, len(items), True)

            return 0, probe_row

        # Keyed by value, a list finds what ``==`` finds: every stored and
        # probed value is within the base's value contract.
        lists = [self._lists[name] for name in attributes]

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
            return SearchOutcome(matches, len(postings), len(base))

        # One hash per attribute fetches its posting list.
        return len(attributes), probe_row
