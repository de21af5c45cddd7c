"""The AMRI bit-address index (Section III, Figure 3).

One compact index serves every access pattern over a state's JAS.  The index
key map (:class:`~repro.core.index_config.IndexConfiguration`) assigns each
join attribute some bits; a tuple lives in the bucket named by the
concatenation of its per-attribute fragments.  Nothing is stored *on* the
tuple — adapting the index relocates tuples between buckets but never touches
per-tuple key material, which is what makes migration and maintenance cheap
relative to multi-hash-index access modules.

Implementation notes
--------------------
With a 64-bit configuration the ``2**64`` logical buckets cannot be
materialised, so buckets live in a dict keyed by the per-attribute fragment
tuple, and a per-attribute inverted map (fragment → live bucket keys) lets a
wildcard search intersect only the attributes it actually specifies.  The
accountant is still charged the price a real bit-address index pays —
``min(2**wildcard_bits, live buckets)`` bucket visits plus one examination
per tuple in each matching bucket — so the performance economics of the paper
are preserved even though the Python implementation never enumerates
wildcard bucket ids.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.index_config import IndexConfiguration, ValueMapper, _default_map
from repro.core.probe_plan import ProbePlan, ProbePlanCache
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex
from repro.utils.bitops import _cached_value_hash

BucketKey = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class MigrationReport:
    """What one index migration (``IC1 -> IC2``) did and cost."""

    old_config: IndexConfiguration
    new_config: IndexConfiguration
    tuples_moved: int
    hashes: int


class BitAddressIndex(StateIndex):
    """A single adaptable bit-address index over one state.

    Parameters
    ----------
    config:
        The initial index key map.
    accountant:
        Shared cost/memory tally; a fresh one is created if omitted.
    value_mapper:
        Optional value→fragment strategy (see
        :mod:`repro.core.value_mapping`); defaults to hash fragmentation.
    """

    def __init__(
        self,
        config: IndexConfiguration,
        accountant: Accountant | None = None,
        cost_params: "CostParams | None" = None,
        value_mapper: "ValueMapper | None" = None,
    ) -> None:
        super().__init__(config.jas, accountant, cost_params)
        self._config = config
        self.value_mapper = value_mapper
        self._buckets: dict[BucketKey, dict[int, Mapping[str, object]]] = {}
        # One inverted map per JAS attribute position; only positions with
        # bits assigned are maintained (others would map everything to 0).
        self._frag_maps: dict[int, dict[int, set[BucketKey]]] = {}
        self._item_keys: dict[int, BucketKey] = {}
        self._size = 0
        self._rebuild_frag_positions()

    # ------------------------------------------------------------------ #
    # configuration

    @property
    def config(self) -> IndexConfiguration:
        """The current index key map."""
        return self._config

    @property
    def size(self) -> int:
        return self._size

    @property
    def probe_plans(self) -> ProbePlanCache:
        """The compiled-plan cache (exposed for invalidation tests)."""
        return self._plans

    @property
    def bucket_count(self) -> int:
        """Number of live (non-empty) buckets."""
        return len(self._buckets)

    def bucket_sizes(self) -> list[int]:
        """Sizes of all live buckets (for distribution diagnostics)."""
        return [len(b) for b in self._buckets.values()]

    def _rebuild_frag_positions(self) -> None:
        self._frag_maps = {
            i: {} for i, w in enumerate(self._config.bits) if w > 0
        }
        # Compiled probe plans are derived from the key map, so any code
        # path that changes the configuration (construction, reconfigure)
        # lands here and must drop them.
        plans = getattr(self, "_plans", None)
        if plans is None:
            self._plans = ProbePlanCache(self._config)
        else:
            plans.invalidate(self._config)

    def _bucket_overhead_bytes(self) -> int:
        # A live bucket costs its dict slot plus one inverted-map entry per
        # actively indexed attribute.
        return self.cost_params.bucket_bytes + 8 * len(self._frag_maps)

    # ------------------------------------------------------------------ #
    # storage

    def insert(self, item: Mapping[str, object]) -> None:
        mapper = self.value_mapper
        key = self._plans.key_plan.key_for(
            item, _default_map if mapper is None else mapper
        )
        acct = self.accountant
        acct.hashes += len(self._frag_maps)  # one fragment hash per indexed attribute
        acct.inserts += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = {}
            self._buckets[key] = bucket
            for pos, fmap in self._frag_maps.items():
                fmap.setdefault(key[pos], set()).add(key)
            acct.index_bytes += self._bucket_overhead_bytes()
        bucket[id(item)] = item
        self._item_keys[id(item)] = key
        self._size += 1
        acct.index_bytes += self.cost_params.bucket_slot_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        key = self._item_keys.pop(id(item), None)
        if key is None:
            raise KeyError("item was never inserted into this index")
        bucket = self._buckets[key]
        del bucket[id(item)]
        self._size -= 1
        acct = self.accountant
        acct.deletes += 1
        acct.index_bytes -= self.cost_params.bucket_slot_bytes
        if not bucket:
            del self._buckets[key]
            for pos, fmap in self._frag_maps.items():
                keys = fmap.get(key[pos])
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del fmap[key[pos]]
            acct.index_bytes -= self._bucket_overhead_bytes()

    def contains(self, item: Mapping[str, object]) -> bool:
        return id(item) in self._item_keys

    def items(self) -> Iterator[Mapping[str, object]]:
        """Iterate every stored item (bucket order)."""
        for bucket in self._buckets.values():
            yield from bucket.values()

    # ------------------------------------------------------------------ #
    # search

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        plan = self._plans.lookup(ap)
        buckets = self._buckets
        live = len(buckets)
        # Charged visits: min(2**wildcard_bits, live), floored at one visit
        # for a non-empty index.
        visited = max(plan.enumerated(live), 1 if live else 0)
        select = plan.select
        fixed = plan.fixed
        fragments_of = self._row_fragments
        slots = plan.point_slots
        if not fixed:
            # No indexed attribute constrains the probe: walk every bucket.
            size = self._size

            def probe_row(row: tuple) -> SearchOutcome:
                groups = [bucket.values() for bucket in buckets.values()]
                return SearchOutcome(select(groups, row), visited, size, True)

        elif slots is not None:
            # Every indexed attribute is fixed, so the fragments name one
            # bucket — Section III's concatenation — and the probe is one
            # lookup.  (A position without bits has fragment 0.)

            def probe_row(row: tuple) -> SearchOutcome:
                fragments = fragments_of(plan, row)
                fragments.append(0)
                bucket = buckets.get(tuple([fragments[slot] for slot in slots]))
                if bucket is None:
                    return SearchOutcome([], visited, 0)
                return SearchOutcome(select((bucket.values(),), row), visited, len(bucket))

        else:
            candidates = self._wildcard_candidates

            def probe_row(row: tuple) -> SearchOutcome:
                groups = candidates(fixed, fragments_of(plan, row))
                return SearchOutcome(select(groups, row), visited, sum(map(len, groups)))

        # C_hash,Sr: one hash per attribute the request specifies.
        return plan.n_attributes, probe_row

    def _wildcard_candidates(
        self, fixed: tuple[tuple[int, str, int], ...], fragments: list[int]
    ) -> list:
        """The buckets (as value views) whose key carries every fixed
        fragment (``fragments[i]`` belongs to JAS position ``fixed[i][0]``).

        They are the keys of the smallest fragment key set — the first
        smallest in fixed-position order — that match at every other fixed
        position, in that set's iteration order: downstream match lists,
        and therefore the golden corpus, depend on exactly this order.
        """
        frag_maps = self._frag_maps
        pairs = [(spec[0], frag) for spec, frag in zip(fixed, fragments)]
        base: set[BucketKey] | None = None
        for pos, frag in pairs:
            keys = frag_maps[pos].get(frag)
            if not keys:
                return []
            if base is None or len(keys) < len(base):
                base, base_pos = keys, pos
        buckets = self._buckets
        others = [pair for pair in pairs if pair[0] != base_pos]
        if not others:
            return [buckets[k].values() for k in base]
        if len(others) == 1:
            ((pos, frag),) = others
            return [buckets[k].values() for k in base if k[pos] == frag]
        return [
            buckets[k].values()
            for k in base
            if all(k[pos] == frag for pos, frag in others)
        ]

    def _row_fragments(self, plan: ProbePlan, row: tuple) -> list[int]:
        """The probe row's fragment per entry of ``plan.fixed``.

        Without a value mapper the fragment is the memoized value hash
        masked to the attribute's width, taken in one C call per attribute;
        an unhashable value falls through to the mapper path, which raises
        the canonical error.
        """
        mapper = self.value_mapper
        if mapper is None:
            try:
                return [
                    _cached_value_hash(type(row[i]), row[i]) & fmask
                    for i, fmask in plan.row_masks
                ]
            except TypeError:
                mapper = _default_map
        return [
            mapper(name, row[i], width)
            for (i, _fmask), (_pos, name, width) in zip(plan.row_masks, plan.fixed)
        ]

    # ------------------------------------------------------------------ #
    # adaptation

    def reconfigure(self, new_config: IndexConfiguration) -> MigrationReport:
        """Adapt the index from the current key map to ``new_config``.

        Every stored tuple is relocated to its bucket under the new map
        (Section III's ``BI1 -> BI2`` migration); the accountant is charged
        one move plus one fragment hash per newly indexed attribute for each
        tuple.
        """
        if new_config.jas != self.jas:
            raise ValueError("new configuration ranges over a different JAS")
        old_config = self._config
        old_items = list(self.items())

        acct = self.accountant
        acct.index_bytes -= self._current_structure_bytes()

        self._config = new_config
        self._buckets = {}
        self._item_keys = {}
        self._size = 0
        self._rebuild_frag_positions()

        hashes_before = acct.hashes
        for item in old_items:
            self.insert(item)
            acct.inserts -= 1  # migration is not a fresh insert; charge moves instead
        acct.moves += len(old_items)
        return MigrationReport(
            old_config=old_config,
            new_config=new_config,
            tuples_moved=len(old_items),
            hashes=acct.hashes - hashes_before,
        )

    def _current_structure_bytes(self) -> int:
        return (
            len(self._buckets) * self._bucket_overhead_bytes()
            + self._size * self.cost_params.bucket_slot_bytes
        )

    def describe(self) -> str:
        return f"BitAddressIndex({self._config!r}, size={self._size}, buckets={len(self._buckets)})"


def make_bit_index(
    jas: JoinAttributeSet,
    bits: Mapping[str, int] | list[int] | tuple[int, ...],
    accountant: Accountant | None = None,
) -> BitAddressIndex:
    """Convenience constructor: build a bit-address index from a bit spec."""
    return BitAddressIndex(IndexConfiguration(jas, bits), accountant)
