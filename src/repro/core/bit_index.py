"""The AMRI bit-address index (Section III, Figure 3).

One compact index serves every access pattern over a state's JAS.  The index
key map (:class:`~repro.core.index_config.IndexConfiguration`) assigns each
join attribute some bits; a tuple lives in the bucket named by the
concatenation of its per-attribute fragments.  Nothing is stored *on* the
tuple — adapting the index relocates bucket entries but never touches
per-tuple key material, which is what makes migration and maintenance cheap
relative to multi-hash-index access modules.

Implementation notes
--------------------
With a 64-bit configuration the ``2**64`` logical buckets cannot be
materialised, so the index is sparse, and it keeps two views of one state:

**Buckets of value rows, for every answer that has matches.**  Every
stored tuple owns a slot for as long as it is stored (``id -> (slot, bucket
key)``; a removed tuple's slot is reused before a new one is handed out, so
the slots stay as dense as the state's high-water mark), and a slot-indexed
list holds the tuple itself.  A bucket entry is the tuple's *value row*,
its JAS values read once at insert with its slot appended, ``(v0, …, vn-1,
slot)``: a probe compares against the row and reads the tuple only to
return it as a match.  Such a row holds atomic values only, so the cyclic
GC stops tracking it.  Buckets live in a dict keyed by the per-attribute
fragment tuple; a per-attribute inverted map (fragment → the live bucket
keys that carry it: the one key itself while one bucket does, a set from
the second on) lets a wildcard search walk only the buckets that carry its
fixed fragments, and a probe that fixes every indexed attribute computes
its one key.  Match lists come from this walk alone, in the order
documented on :func:`_walk_source`, which writes the walk of each probe
shape as one function (the source holds integers only; names, values,
masks and maps are arguments).

**Value and fragment counts, for the answer "nothing matches".**  Per JAS
position a map counts the live tuples holding each value, and per indexed
position a map counts the live tuples holding each fragment; a count that
reaches zero is deleted.  Insert and remove add or take one per map, and
``reconfigure`` rebuilds the fragment counts from the new buckets while the
value counts stand.  Equal values share one entry (``1 == 1.0 == True``):
within the base's value contract a dict finds exactly what ``==`` finds.  A
probe that is not a point probe, probes an attribute and fixes at most one
position asks the counts first.  If some probed value has no count, no
stored tuple equals the row, and the walk's ``tuples_examined`` is the fixed
fragment's count (``size`` with none fixed), so the probe is answered in
O(1); otherwise the walk runs as if the counts were not there.

The accountant is charged the price a real bit-address index pays —
``min(2**wildcard_bits, live buckets)`` bucket visits plus one examination
per tuple in each matching bucket — whichever view answered, so the
performance economics of the paper are preserved even though the Python
implementation never enumerates wildcard bucket ids.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from operator import and_, contains

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.index_config import IndexConfiguration
from repro.core.probe_plan import ProbePlan, compile_key_plan, compile_probe_plan
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex
from repro.utils.bitops import _cached_value_hash

BucketKey = tuple[int, ...]


def _counters(maps: list[dict], positions: list[int]) -> tuple[Callable, Callable]:
    """``(add, drop)``: ``add(values)`` counts ``values[p]`` once more in
    the map of each ``p`` of ``positions`` (a value row or a bucket key),
    ``drop(values)`` once less, deleting a count that reaches zero.
    Specialised to the arity like ``KeyPlan.hash_row``, holding bound
    ``dict.get``s."""
    n = len(positions)
    if n == 1:
        (ca,), (pa,) = maps, positions
        ga = ca.get

        def add(values):
            a = values[pa]
            ca[a] = ga(a, 0) + 1

        def drop(values):
            a = values[pa]
            if left := ga(a) - 1:
                ca[a] = left
            else:
                del ca[a]
    elif n == 2:
        (ca, cb), (pa, pb) = maps, positions
        ga, gb = ca.get, cb.get

        def add(values):
            a, b = values[pa], values[pb]
            ca[a] = ga(a, 0) + 1
            cb[b] = gb(b, 0) + 1

        def drop(values):
            a, b = values[pa], values[pb]
            if left := ga(a) - 1:
                ca[a] = left
            else:
                del ca[a]
            if left := gb(b) - 1:
                cb[b] = left
            else:
                del cb[b]
    elif n == 3:
        (ca, cb, cc), (pa, pb, pc) = maps, positions
        ga, gb, gc = ca.get, cb.get, cc.get

        def add(values):
            a, b, c = values[pa], values[pb], values[pc]
            ca[a] = ga(a, 0) + 1
            cb[b] = gb(b, 0) + 1
            cc[c] = gc(c, 0) + 1

        def drop(values):
            a, b, c = values[pa], values[pb], values[pc]
            if left := ga(a) - 1:
                ca[a] = left
            else:
                del ca[a]
            if left := gb(b) - 1:
                cb[b] = left
            else:
                del cb[b]
            if left := gc(c) - 1:
                cc[c] = left
            else:
                del cc[c]
    else:
        pairs = list(zip(maps, positions))

        def add(values):
            for counts, p in pairs:
                counts[values[p]] = counts.get(values[p], 0) + 1

        def drop(values):
            for counts, p in pairs:
                if left := counts[values[p]] - 1:
                    counts[values[p]] = left
                else:
                    del counts[values[p]]

    return add, drop


#: A probe shape: ``(n_fixed, arity, layout)`` — see :func:`_walk_source`.
WalkShape = tuple[int, int, tuple[int, ...] | None]
#: Shape -> walk factory, process-wide: a shape's source is compiled once.
_WALK_FACTORIES: dict[WalkShape, Callable[..., RowProbe]] = {}


def _walk_source(n_fixed: int, arity: int, layout: tuple[int, ...] | None) -> str:
    """The source of the walk factory for one probe shape.

    A probe of ``arity`` attributes, ``n_fixed`` of which carry bits;
    ``layout`` is the plan's ``point_slots`` when those fragments name one
    bucket, else ``None``.  Only these integers are formatted in.  The
    factory takes the plan, the structure and the helpers as arguments and
    returns ``probe_row``, which in one call:

    - computes each fixed fragment: the memoized value hash masked to its
      width;
    - finds the candidate rows.  A point probe assembles its one key (a
      position without bits has fragment 0) and takes that bucket's rows.
      A wildcard probe looks up each fragment's key set in fixed-position
      order, has no candidates at the first empty one, reads a bare key
      as a one-key tuple, and walks the *first smallest* set in its
      iteration order, keeping the keys that carry every other fixed
      fragment; its candidates are those buckets' rows in that order.
      With no fixed fragment they are every bucket's rows.  Downstream match lists, and therefore the golden corpus,
      depend on exactly this order.  A wildcard prober keeps each
      fixed-fragment tuple's candidate rows in a dict, so rows that share
      fragments find them once: the prober is dropped on every insert,
      remove and reconfigure, so the dict never sees a stale bucket;
    - keeps the candidate rows equal to the probe, ``r[pos] == value`` —
      the stored value on the left, attributes in pattern order,
      short-circuit — and returns their tuples from the slot list, charging
      the candidates as examined.
    """
    fixed = range(n_fixed)
    where = " and ".join(f"r[p{j}] == v{j}" for j in range(arity))
    where = f" if {where}" if where else ""
    lines = ["def make_walk(plan, buckets, frag_maps, items, visited, hash_, Outcome):"]
    for targets, source in (
        ([f"p{j}" for j in range(arity)], "plan.positions"),
        ([f"(r{j}, m{j})" for j in fixed], "plan.row_masks"),
        ([f"(q{j}, _, _)" for j in fixed], "plan.fixed"),
    ):
        if targets:
            lines.append(f"    {', '.join(targets)}, = {source}")
    body = [f"{''.join(f'v{j}, ' for j in range(arity))}= probe"] if arity else []
    body += [f"f{j} = hash_(probe[r{j}]) & m{j}" for j in fixed]
    if layout is not None:
        key = "".join(f"f{slot}, " if slot < n_fixed else "0, " for slot in layout)
        select = f"items[r[-1]] for r in b.values(){where}"
        body += [f"b = buckets.get(({key}))", "if b is None:", "    return Outcome([], visited, 0)"]
        body.append(f"return Outcome([{select}], visited, len(b))")
    else:
        frags = ", ".join(f"f{j}" for j in fixed)
        lines += [f"    g{j} = frag_maps[q{j}].get" for j in fixed]
        lines += ["    memo = {}", f"    def candidates({frags}):"]
        walk = []
        for j in fixed:
            walk += [f"s{j} = g{j}(f{j})", f"if not s{j}:", "    return []"]
            walk += [f"if s{j}.__class__ is tuple:", f"    s{j} = (s{j},)"]
        groups = []
        for base in fixed:
            others = " and ".join(f"k[q{j}] == f{j}" for j in fixed if j != base)
            others = f" if {others}" if others else ""
            groups.append(f"return [r for k in s{base}{others} for r in buckets[k].values()]")
        if n_fixed > 1:
            walk.append("i, n = 0, len(s0)")
            for j in range(1, n_fixed):
                walk += [f"if len(s{j}) < n:", f"    i, n = {j}, len(s{j})"]
            for j in range(n_fixed - 1):
                walk += [f"if i == {j}:", f"    {groups[j]}"]
        every = "return [r for b in buckets.values() for r in b.values()]"
        walk.append(groups[-1] if groups else every)
        lines += [f"        {line}" for line in walk]
        key = frags if n_fixed == 1 else f"({frags})"
        body += [
            f"rows = memo.get({key})",
            "if rows is None:",
            f"    rows = memo[{key}] = candidates({frags})",
            f"return Outcome([items[r[-1]] for r in rows{where}], visited, len(rows)"
            f"{'' if n_fixed else ', True'})",
        ]
    lines.append("    def probe_row(probe):")
    lines += [f"        {line}" for line in body]
    lines.append("    return probe_row")
    return "\n".join(lines) + "\n"


def _walk_factory(shape: WalkShape) -> Callable[..., RowProbe]:
    """The compiled factory of ``_walk_source(*shape)``."""
    factory = _WALK_FACTORIES.get(shape)
    if factory is None:
        namespace: dict = {}
        exec(_walk_source(*shape), namespace)
        factory = _WALK_FACTORIES[shape] = namespace["make_walk"]
    return factory


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
    """

    #: A prober captures the size and the live-bucket count, and a wildcard
    #: prober keeps candidate rows per fragment tuple, so every insert and
    #: remove must drop it: that memo lives for one route stage at most.
    probers_outlive_storage = False
    hashes_values = True

    def __init__(
        self,
        config: IndexConfiguration,
        accountant: Accountant | None = None,
        cost_params: "CostParams | None" = None,
    ) -> None:
        super().__init__(config.jas, accountant, cost_params)
        self._config = config
        # Bucket key -> ``slot -> value row`` (the row ends with the slot).
        self._buckets: dict[BucketKey, dict[int, tuple]] = {}
        # One inverted map per JAS attribute position; only positions with
        # bits assigned are maintained (others would map everything to 0).
        # A fragment one live bucket carries maps to that bucket's key, one
        # that more carry to a set of keys; a set stays a set until it is
        # empty, so a churned set keeps its table and its iteration order.
        self._frag_maps: dict[int, dict[int, BucketKey | set[BucketKey]]] = {}
        # A stored tuple's entry is ``(slot, bucket key)``.  It keeps its
        # slot for life; a removed tuple's slot goes on the free list and is
        # handed out again before a new one, so slots in use and free slots
        # together are ``0 .. size + len(_free) - 1``, and ``_items[slot]``
        # is the tuple (``None`` for a free slot).
        self._free: list[int] = []
        self._items: list[Mapping[str, object] | None] = []
        # Per JAS position, value -> live tuples holding it (per indexed
        # position, ``_frag_counts`` counts fragments).
        values = self._value_counts = [{} for _ in config.jas.names]
        self._add_values, self._drop_values = _counters(values, list(range(len(values))))
        #: Probe rows the counts answered without a bucket walk, and rows
        #: they passed on to the walk (a possible match).  Probers hold this
        #: list, never the index.
        self.count_rows = [0, 0]
        self._rebuild_frag_positions()

    # ------------------------------------------------------------------ #
    # configuration

    @property
    def config(self) -> IndexConfiguration:
        """The current index key map."""
        return self._config

    @property
    def bucket_count(self) -> int:
        """Number of live (non-empty) buckets."""
        return len(self._buckets)

    def _rebuild_frag_positions(self) -> None:
        # Compiled probe plans and probers are derived from the key map, so
        # any code path that changes the configuration (construction,
        # reconfigure) lands here, and drops them.  The plan table (pattern
        # mask -> plan) outlives insert and remove, which drop the probers.
        self._drop_probers()
        self._plans: dict[int, ProbePlan] = {}
        self._key_plan = compile_key_plan(self._config)
        self._frag_maps = {i: {} for i, w in enumerate(self._config.bits) if w > 0}
        # A live bucket costs its dict slot plus one inverted-map entry per
        # actively indexed attribute.
        self._bucket_bytes = self.cost_params.bucket_bytes + 8 * len(self._frag_maps)
        counts = self._frag_counts = {i: {} for i in self._frag_maps}
        self._add_fragments, self._drop_fragments = _counters([*counts.values()], [*counts])

    # ------------------------------------------------------------------ #
    # storage

    def _insert(self, item: Mapping[str, object], row: tuple) -> tuple[int, BucketKey]:
        free = self._free
        slot = free[-1] if free else len(self._items)
        key, bucket_row = self._key_plan.hash_row(row, slot)
        if free:
            free.pop()
            self._items[slot] = item
        else:
            self._items.append(item)
        self.accountant.hashes += len(self._frag_maps)  # one fragment hash per indexed attribute
        self._add_values(row)
        self._add_fragments(key)
        self._place(bucket_row, key)
        return slot, key

    def _place(self, row: tuple, key: BucketKey) -> None:
        """Put the value row ``row`` in the bucket ``key`` names (a new
        bucket enters the inverted maps: as the bare key under a new
        fragment, building ``{old, new}`` under a fragment one bucket
        carried — the insertions of ``{old}`` then ``.add(new)``)."""
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = {}
            self._buckets[key] = bucket
            for pos, fmap in self._frag_maps.items():
                frag = key[pos]
                keys = fmap.get(frag)
                if keys is None:
                    fmap[frag] = key
                elif keys.__class__ is set:
                    keys.add(key)
                else:
                    fmap[frag] = {keys, key}
            self.accountant.index_bytes += self._bucket_bytes
        bucket[row[-1]] = row

    def _remove(self, item: Mapping[str, object], entry: tuple[int, BucketKey]) -> None:
        slot, key = entry
        self._free.append(slot)
        self._items[slot] = None
        bucket = self._buckets[key]
        self._drop_values(bucket.pop(slot))
        self._drop_fragments(key)
        if not bucket:
            del self._buckets[key]
            for pos, fmap in self._frag_maps.items():
                frag = key[pos]
                keys = fmap[frag]
                if keys.__class__ is set:
                    keys.discard(key)
                    if keys:
                        continue
                del fmap[frag]
            self.accountant.index_bytes -= self._bucket_bytes

    def bucket_items(self, key: BucketKey) -> list[Mapping[str, object]]:
        """The tuples of the bucket ``key`` names, in bucket order."""
        items = self._items
        return [items[row[-1]] for row in self._buckets[key].values()]

    def items(self) -> Iterator[Mapping[str, object]]:
        """Iterate every stored item (bucket order)."""
        for key in self._buckets:
            yield from self.bucket_items(key)

    # ------------------------------------------------------------------ #
    # search

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        plan = self._plans.get(ap.mask)
        if plan is None:
            plan = self._plans[ap.mask] = compile_probe_plan(self._config, ap)
        buckets = self._buckets
        live = len(buckets)
        # Charged visits: min(2**wildcard_bits, live), floored at one visit
        # for a non-empty index.
        visited = max(plan.enumerated(live), 1 if live else 0)
        # Every indexed attribute fixed: the fragments name one bucket —
        # Section III's concatenation — and the probe is one lookup.
        point = plan.point_slots if plan.fixed else None
        make_walk = _walk_factory((len(plan.fixed), plan.n_attributes, point))
        probe_row = make_walk(
            plan,
            buckets,
            self._frag_maps,
            self._items,
            visited,
            _cached_value_hash,
            SearchOutcome,
        )
        # A point probe is one ``dict.get`` already; two fixed fragments
        # would need a count per fragment pair.
        if point is None and plan.n_attributes and len(plan.fixed) <= 1:
            probe_row = self._count_probe(plan, visited, probe_row)
        # C_hash,Sr: one hash per attribute the request specifies.
        return plan.n_attributes, probe_row

    def _count_probe(self, plan: ProbePlan, visited: int, walk: RowProbe) -> RowProbe:
        """``walk`` with the counts asked first (at most one fixed position).

        A row holding a value no live tuple holds at its position matches
        nothing; its ``tuples_examined`` is the walk's — the fixed
        fragment's count, or ``size`` with none fixed.  Any other row walks.
        The prober holds the maps and ``count_rows``, never the index: a
        cached prober must not keep its index alive in a cycle."""
        counts = [self._value_counts[pos] for pos in plan.positions]
        tally = self.count_rows
        size = len(self._entries)
        fixed = bool(plan.fixed)
        if fixed:
            ((r, m),), ((q, _, _),) = plan.row_masks, plan.fixed
            fragment_count = self._frag_counts[q].get
        hash_ = _cached_value_hash

        def probe_row(row: tuple) -> SearchOutcome:
            if all(map(contains, counts, row)):
                tally[1] += 1
                return walk(row)
            tally[0] += 1
            if fixed:
                return SearchOutcome([], visited, fragment_count(hash_(row[r]) & m, 0))
            return SearchOutcome([], visited, size, True)

        return probe_row

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
        old_buckets = self._buckets

        acct = self.accountant
        acct.index_bytes -= len(old_buckets) * self._bucket_bytes

        self._config = new_config
        self._buckets = {}
        self._rebuild_frag_positions()

        # Membership does not change, so every tuple keeps its slot and its
        # value row, and the value counts stand.  A fragment is the value
        # hash masked to its width, so a position whose width did not grow
        # keeps its old fragment under the new mask; only a widened position
        # re-hashes the row's value.  Rows are re-placed in the old bucket
        # order.
        entries = self._entries
        items = self._items
        masks = self._key_plan.masks
        widened = [(p, masks[p]) for p, w in enumerate(new_config.bits) if w > old_config.bits[p]]
        hash_ = _cached_value_hash
        for old_key, bucket in old_buckets.items():
            fragments = list(map(and_, old_key, masks))
            for row in bucket.values():
                for p, mask in widened:
                    fragments[p] = hash_(row[p]) & mask
                slot = row[-1]
                key = tuple(fragments)
                entries[id(items[slot])] = (slot, key)
                self._place(row, key)
        for key, bucket in self._buckets.items():
            for p, counts in self._frag_counts.items():
                counts[key[p]] = counts.get(key[p], 0) + len(bucket)
        # Not fresh inserts: per tuple one move and the new map's hashes.
        moved = len(entries)
        hashes = moved * len(self._frag_maps)
        acct.hashes += hashes
        acct.moves += moved
        return MigrationReport(
            old_config=old_config,
            new_config=new_config,
            tuples_moved=moved,
            hashes=hashes,
        )

    def describe(self) -> str:
        return (
            f"BitAddressIndex({self._config!r}, size={self.size}, "
            f"buckets={len(self._buckets)}, count_answered={self.count_rows[0]}, "
            f"count_walked={self.count_rows[1]})"
        )


def make_bit_index(
    jas: JoinAttributeSet,
    bits: Mapping[str, int] | list[int] | tuple[int, ...],
    accountant: Accountant | None = None,
) -> BitAddressIndex:
    """Convenience constructor: build a bit-address index from a bit spec."""
    return BitAddressIndex(IndexConfiguration(jas, bits), accountant)
