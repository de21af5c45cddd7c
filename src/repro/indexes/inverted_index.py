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
from repro.indexes.base import Accountant, CostParams, SearchOutcome, StateIndex


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
        # Lazy (cracking) tier: ``_pending`` is the newest suffix of
        # ``_items`` whose postings have not been built yet.  Keeping the
        # pending tier a strict suffix of the global insertion order is
        # what makes merged probe results order-exact with eager mode.
        self._pending: dict[int, Mapping[str, object]] = {}
        self._heat = 0

    @property
    def size(self) -> int:
        return len(self._items)

    def insert(self, item: Mapping[str, object]) -> None:
        self._items[id(item)] = item
        acct = self.accountant
        acct.inserts += 1
        acct.index_bytes += self.cost_params.bucket_slot_bytes
        if self.lazy:
            # Model-faithful laziness: the posting hashes and entry bytes
            # are charged up front exactly as the eager build would charge
            # them; only the Python posting work is deferred.
            self._pending[id(item)] = item
            n = len(self.jas.names)
            acct.hashes += n
            acct.index_bytes += n * self.cost_params.index_entry_bytes
            return
        for name in self.jas.names:
            self._lists[name].setdefault(item[name], {})[id(item)] = item
            acct.hashes += 1
            acct.index_bytes += self.cost_params.index_entry_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        if id(item) not in self._items:
            raise KeyError("item was never inserted into this index")
        del self._items[id(item)]
        acct = self.accountant
        acct.deletes += 1
        acct.index_bytes -= self.cost_params.bucket_slot_bytes
        if self._pending.pop(id(item), None) is not None:
            n = len(self.jas.names)
            acct.hashes += n
            acct.index_bytes -= n * self.cost_params.index_entry_bytes
            return
        for name in self.jas.names:
            postings = self._lists[name].get(item[name])
            if postings is not None:
                postings.pop(id(item), None)
                if not postings:
                    del self._lists[name][item[name]]
            acct.hashes += 1
            acct.index_bytes -= self.cost_params.index_entry_bytes

    def contains(self, item: Mapping[str, object]) -> bool:
        return id(item) in self._items

    def search(self, ap: AccessPattern, values: Mapping[str, object]) -> SearchOutcome:
        matcher = self._probe_matcher(ap, values)
        acct = self.accountant
        outcome = SearchOutcome()
        if matcher.is_full_scan:
            examined = len(self._items)
            acct.tuples_examined += examined
            acct.buckets_visited += 1
            outcome.tuples_examined = examined
            outcome.buckets_visited = 1
            outcome.used_full_scan = True
            outcome.matches = list(self._items.values())
            return outcome
        if self._pending:
            return self._search_merged(matcher, values, outcome)
        # Fetch each attribute's posting list; intersect smallest-first.
        postings = []
        for name in matcher.attributes:
            acct.hashes += 1
            postings.append(self._lists[name].get(values[name], {}))
        postings.sort(key=len)
        acct.buckets_visited += len(postings)
        outcome.buckets_visited = len(postings)
        base = postings[0]
        rest = postings[1:]
        # Walking the smallest list and probing the others costs one
        # examination per base entry (each membership check is a hash probe).
        examined = len(base)
        acct.tuples_examined += examined
        outcome.tuples_examined = examined
        if rest:
            outcome.matches = [
                item for key, item in base.items() if all(key in p for p in rest)
            ]
        else:
            outcome.matches = list(base.values())
        return outcome

    def _search_merged(self, matcher, values, outcome: SearchOutcome) -> SearchOutcome:
        """Partially populated probe: structure postings + one log scan.

        Observably identical to the eager search: each attribute's logical
        posting is its structure posting plus the pending tuples carrying
        that value, so the smallest-first stable sort permutes identically,
        the examination count equals the logical base length, and matches
        come out in global insertion order (structure tier is a strict
        prefix of it).
        """
        self._heat += 1
        acct = self.accountant
        attrs = matcher.attributes
        structure = []
        for name in attrs:
            acct.hashes += 1
            structure.append(self._lists[name].get(values[name], {}))
        # One pass over the log: per-attribute pending posting lengths plus
        # the pending tuples matching the whole pattern (in log order).
        pend_counts = [0] * len(attrs)
        pend_matches = []
        for item in self._pending.values():
            ok = True
            for i, name in enumerate(attrs):
                if item[name] == values[name]:
                    pend_counts[i] += 1
                else:
                    ok = False
            if ok:
                pend_matches.append(item)
        order = sorted(
            range(len(attrs)), key=lambda i: len(structure[i]) + pend_counts[i]
        )
        acct.buckets_visited += len(attrs)
        outcome.buckets_visited = len(attrs)
        base_i = order[0]
        base = structure[base_i]
        rest = [structure[i] for i in order[1:]]
        examined = len(base) + pend_counts[base_i]
        acct.tuples_examined += examined
        outcome.tuples_examined = examined
        if rest:
            matches = [
                item for key, item in base.items() if all(key in p for p in rest)
            ]
        else:
            matches = list(base.values())
        matches.extend(pend_matches)
        outcome.matches = matches
        return outcome

    # ------------------------------------------------------------------ #
    # lazy admission (cracking) — see StateIndex for the contract

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def promote_pending(self, budget: int | None = None) -> int:
        pending = self._pending
        n = len(pending) if budget is None else min(budget, len(pending))
        if n <= 0:
            return 0
        lists = self._lists
        names = self.jas.names
        for key in list(pending)[:n]:  # oldest first: structure stays a prefix
            item = pending.pop(key)
            for name in names:
                lists[name].setdefault(item[name], {})[key] = item
        self.promotions_total += n
        self.crack_epoch += 1
        return n

    def promote_hot(self, threshold: float, budget: int | None = None) -> int:
        if not self._pending or self._heat < threshold:
            return 0
        n = self.promote_pending(budget)
        self._heat = 0
        return n

    def demote_cold(self, budget: int | None = None) -> int:
        # All-or-nothing: a partial demotion would break the pending tier's
        # suffix invariant (and with it the merged match order).
        resident = len(self._items) - len(self._pending)
        if not self.lazy or resident <= 0:
            return 0
        if budget is not None and budget < resident:
            return 0
        self._lists = {name: {} for name in self.jas.names}
        self._pending = dict(self._items)
        self._heat = 0
        self.demotions_total += resident
        self.crack_epoch += 1
        return resident

    def crack_stats(self) -> dict[str, int]:
        return {
            "hot_buckets": len(self._items) - len(self._pending),
            "cold_buckets": 1 if self._pending else 0,
            "pending": len(self._pending),
            "promotions": self.promotions_total,
            "demotions": self.demotions_total,
        }

    def describe(self) -> str:
        return f"InvertedListIndex(jas={list(self.jas.names)}, size={len(self._items)})"
