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
fragment tuple; a per-attribute inverted map (fragment → live bucket keys)
lets a wildcard search walk only the buckets that carry its fixed
fragments, and a probe that fixes every indexed attribute computes its one
key.  Match lists come from this walk alone, in the order documented on
:func:`_walk_source`, which writes the walk of each probe shape as one
function (the source holds integers only; names, values, masks and maps are
arguments).

**Value-hash columns, for the answer "nothing matches".**  Per JAS attribute a
``uint64`` column holds each slot's 64-bit stable value hash, beside a mask
of the slots in use.  Maintenance is one row write per insert and one flag
per remove; nothing ever moves.  A fragment *is* ``hash & mask``, so the
columns hold for every key map: ``reconfigure`` re-derives the keys from
them and leaves them alone.  A probe that leaves wildcard bits and expects
at least ``COLUMN_PROBE_MIN_CANDIDATES`` candidates asks the columns first:
``(column & mask) == (h & mask)`` over its fixed attributes marks, among
the slots in use, exactly the tuples of the buckets the walk would visit —
their count *is* the walk's ``tuples_examined`` — and ``column == h`` over
its probed attributes finds the slots that can equal the row.  If there is
none the probe is answered; otherwise the walk runs as if the columns were
not there.  Equal values have one stable hash (``1 == 1.0 == True`` hash
as ``1``) across every type the base's value contract admits, so a column
vouches for any probe value.

The accountant is charged the price a real bit-address index pays —
``min(2**wildcard_bits, live buckets)`` bucket visits plus one examination
per tuple in each matching bucket — whichever view answered, so the
performance economics of the paper are preserved even though the Python
implementation never enumerates wildcard bucket ids.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.index_config import IndexConfiguration
from repro.core.probe_plan import ProbePlan, ProbePlanCache
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex
from repro.utils.bitops import _cached_value_hash

BucketKey = tuple[int, ...]

#: A probe that leaves wildcard bits asks the hash columns before it walks
#: buckets when its fixed fragments leave at least this many candidates
#: (``size >> fixed_bits``).  Set from the committed sweep
#: ``benchmarks/test_micro_index_ops.py::test_bit_probe_walk_vs_columns_crossover``
#: (1 024 tuples, no-match probes, µs per probe through ``search_batch``,
#: ``BENCH_micro.json``): at 16 / 32 / 64 / 128 candidates the walk reads
#: 7.6 / 9.9 / 15.0 / 25.7 and the columns 9.3 / 9.2 / 9.0 / 9.4 — the
#: column answer costs the same at every width and the walk crosses it
#: just under 32.  A row that can match pays for both, so the gate sits a
#: factor of two above the crossover.  A constant, not an option.
COLUMN_PROBE_MIN_CANDIDATES = 64

_INITIAL_CAPACITY = 256
#: The fragment mask of a fragment as wide as the 64-bit hash.
_HASH_MASK = np.uint64((1 << 64) - 1)
_ONE = np.uint64(1)


def _hash_table(capacity: int, n_attributes: int) -> np.ndarray:
    """Room for ``capacity`` slots' value hashes, one row per slot; Fortran
    order keeps each attribute's column contiguous for the vector compares."""
    return np.empty((capacity, n_attributes), dtype=np.uint64, order="F")


def _grown(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``new`` (longer) with ``old``'s rows copied in."""
    new[: len(old)] = old
    return new


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
    - finds the candidate buckets.  A point probe assembles its one key (a
      position without bits has fragment 0).  A wildcard probe looks up each
      fragment's key set in fixed-position order, answers "no match" at the
      first empty one, and walks the *first smallest* set in its iteration
      order, keeping the keys that carry every other fixed fragment.
      Downstream match lists, and therefore the golden corpus, depend on
      exactly this order.  With no fixed fragment it walks every bucket;
    - keeps the value rows equal to the probe, ``r[pos] == value`` — the
      stored value on the left, attributes in pattern order, short-circuit —
      and returns their tuples from the slot list.
    """
    fixed = range(n_fixed)
    where = " and ".join(f"r[p{j}] == v{j}" for j in range(arity))
    where = f" if {where}" if where else ""
    lines = [
        "def make_walk(plan, buckets, frag_maps, items, visited, size, hash_, Outcome):"
    ]
    for targets, source in (
        ([f"p{j}" for j in range(arity)], "plan.positions"),
        ([f"(r{j}, m{j})" for j in fixed], "plan.row_masks"),
        ([f"(q{j}, _, _)" for j in fixed], "plan.fixed"),
    ):
        if targets:
            lines.append(f"    {', '.join(targets)}, = {source}")
    if layout is None:
        lines += [f"    g{j} = frag_maps[q{j}].get" for j in fixed]
    body = [f"{''.join(f'v{j}, ' for j in range(arity))}= probe"] if arity else []
    body += [f"f{j} = hash_(probe[r{j}]) & m{j}" for j in fixed]
    miss = "    return Outcome([], visited, 0)"
    if not n_fixed:
        select = f"items[r[-1]] for b in buckets.values() for r in b.values(){where}"
        body.append(f"return Outcome([{select}], visited, size, True)")
    elif layout is not None:
        key = "".join(f"f{slot}, " if slot < n_fixed else "0, " for slot in layout)
        select = f"items[r[-1]] for r in b.values(){where}"
        body += [f"b = buckets.get(({key}))", "if b is None:", miss]
        body.append(f"return Outcome([{select}], visited, len(b))")
    else:
        for j in fixed:
            body += [f"s{j} = g{j}(f{j})", f"if not s{j}:", miss]
        groups = []
        for base in fixed:
            others = " and ".join(f"k[q{j}] == f{j}" for j in fixed if j != base)
            others = f" if {others}" if others else ""
            groups.append(f"groups = [buckets[k] for k in s{base}{others}]")
        if n_fixed == 1:
            body += groups
        else:
            body.append("i, n = 0, len(s0)")
            for j in range(1, n_fixed):
                body += [f"if len(s{j}) < n:", f"    i, n = {j}, len(s{j})"]
            for j in range(n_fixed - 1):
                body += [f"{'elif' if j else 'if'} i == {j}:", f"    {groups[j]}"]
            body += ["else:", f"    {groups[-1]}"]
        select = f"items[r[-1]] for b in groups for r in b.values(){where}"
        body.append(f"return Outcome([{select}], visited, sum(map(len, groups)))")
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
        self._frag_maps: dict[int, dict[int, set[BucketKey]]] = {}
        # A stored tuple's entry is ``(slot, bucket key)``.  It keeps its
        # slot for life; a removed tuple's slot goes on the free list and is
        # handed out again before a new one, so slots in use and free slots
        # together are ``0 .. size + len(_free) - 1``, and ``_items[slot]``
        # is the tuple (``None`` for a free slot).
        self._free: list[int] = []
        self._items: list[Mapping[str, object] | None] = []
        # Per slot and JAS position, the 64-bit stable hash of the tuple's
        # value (column-major: one attribute's hashes are contiguous), and
        # which slots are in use.
        self._hashes = _hash_table(_INITIAL_CAPACITY, len(config.jas))
        self._live = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        #: Probe rows the hash columns answered without a bucket walk, and
        #: rows they passed on to the walk (a possible match).
        self.column_answered = 0
        self.column_walked = 0
        self._rebuild_frag_positions()

    # ------------------------------------------------------------------ #
    # configuration

    @property
    def config(self) -> IndexConfiguration:
        """The current index key map."""
        return self._config

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
        # Compiled probe plans and probers are derived from the key map, so
        # any code path that changes the configuration (construction,
        # reconfigure) lands here, and drops them.
        self._drop_probers()
        self._frag_maps = {i: {} for i, w in enumerate(self._config.bits) if w > 0}
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

    def _insert(self, item: Mapping[str, object], row: tuple) -> tuple[int, BucketKey]:
        free = self._free
        slot = free[-1] if free else len(self._items)
        hashes, key, bucket_row = self._plans.key_plan.hash_row(row, slot)
        if free:
            free.pop()
            self._items[slot] = item
        else:
            self._items.append(item)
        self.accountant.hashes += len(self._frag_maps)  # one fragment hash per indexed attribute
        table = self._hashes
        try:
            table[slot] = hashes
        except IndexError:  # full: double it
            table = self._hashes = _grown(table, _hash_table(2 * slot, len(hashes)))
            self._live = _grown(self._live, np.zeros(2 * slot, dtype=bool))
            table[slot] = hashes
        self._live[slot] = True
        self._place(bucket_row, key)
        return slot, key

    def _place(self, row: tuple, key: BucketKey) -> None:
        """Put the value row ``row`` in the bucket ``key`` names (a new
        bucket enters the inverted maps)."""
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = {}
            self._buckets[key] = bucket
            for pos, fmap in self._frag_maps.items():
                fmap.setdefault(key[pos], set()).add(key)
            self.accountant.index_bytes += self._bucket_overhead_bytes()
        bucket[row[-1]] = row

    def _remove(self, item: Mapping[str, object], entry: tuple[int, BucketKey]) -> None:
        slot, key = entry
        self._free.append(slot)
        self._items[slot] = None
        self._live[slot] = False  # the slot's hashes stay until it is reused
        bucket = self._buckets[key]
        del bucket[slot]
        if not bucket:
            del self._buckets[key]
            for pos, fmap in self._frag_maps.items():
                keys = fmap.get(key[pos])
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del fmap[key[pos]]
            self.accountant.index_bytes -= self._bucket_overhead_bytes()

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
        plan = self._plans.lookup(ap)
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
            len(self._entries),
            _cached_value_hash,
            SearchOutcome,
        )
        if (
            point is None  # one ``dict.get`` already: a point probe never asks
            and len(self._entries) >> plan.fixed_bits >= COLUMN_PROBE_MIN_CANDIDATES
            and plan.n_attributes
        ):
            probe_row = self._column_probe(plan, visited, probe_row)
        # C_hash,Sr: one hash per attribute the request specifies.
        return plan.n_attributes, probe_row

    def _column_probe(self, plan: ProbePlan, visited: int, walk: RowProbe) -> RowProbe:
        """``walk`` with the hash columns asked first.

        Two vector compares stand for the walk of a row that matches
        nothing.  Slots whose hashes carry every fixed fragment are the
        tuples of the candidate buckets, so their count is the
        ``tuples_examined`` the walk would report; if no slot carries the
        full hash of every probed value, no stored tuple equals the row
        (stored and probed values are within the base's value contract);
        else the row walks.  A row that may match walks too:
        the columns never produce a match list, so they cannot change match
        order.

        The structure-only half is done here, once per prober: each fixed
        position's column is masked to its fragment, and a free slot gets
        ``fmask + 1``, a value no fragment can equal, so one compare per
        fixed position marks the candidates.  A fragment as wide as the
        hash leaves no such value; its compare is and-ed with the mask of
        slots in use instead.
        """
        size = len(self._entries)
        free = self._free
        top = size + len(free)  # one past the highest slot handed out
        # Aligned with a probe row: each probed attribute's column.
        columns = [self._hashes[:top, pos] for pos in plan.positions]
        # Per fixed position: its row index, masked column and fragment mask.
        fragments = []
        in_use = None  # the slots in use, when a fragment spans the hash
        for i, fmask in plan.hash_masks:
            if fmask == _HASH_MASK:
                fragments.append((i, columns[i], fmask))
                in_use = self._live[:top]
            else:
                masked = columns[i] & fmask
                if free:
                    masked[free] = fmask + _ONE
                fragments.append((i, masked, fmask))
        full_scan = not fragments
        count_nonzero = np.count_nonzero
        uint64 = np.uint64
        hash_ = _cached_value_hash

        def probe_row(row: tuple) -> SearchOutcome:
            hashes = list(map(uint64, map(hash_, row)))
            examined = size
            if fragments:
                in_buckets = in_use
                for i, masked, fmask in fragments:
                    same = masked == (hashes[i] & fmask)
                    if in_buckets is not None:
                        same &= in_buckets
                    in_buckets = same
                examined = int(count_nonzero(in_buckets))  # the accountant adds Python ints
            # (A free slot still holds hashes: it can cost a needless walk,
            # never an answer.)
            equal = None
            for column, h in zip(columns, hashes):
                same = column == h
                if equal is not None:
                    same &= equal
                if not count_nonzero(same):
                    self.column_answered += 1
                    return SearchOutcome([], visited, examined, full_scan)
                equal = same
            self.column_walked += 1
            return walk(row)

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
        acct.index_bytes -= len(old_buckets) * self._bucket_overhead_bytes()

        self._config = new_config
        self._buckets = {}
        self._rebuild_frag_positions()

        # Membership does not change, so every tuple keeps its slot and its
        # value row, and the hash columns stand; a slot's new key is its
        # hashes under the new masks.  Rows are re-placed in the old bucket
        # order.
        entries = self._entries
        items = self._items
        masks = np.array(self._plans.key_plan.masks, dtype=np.uint64)
        rekeyed = (self._hashes[: len(items)] & masks).tolist()
        for bucket in old_buckets.values():
            for row in bucket.values():
                slot = row[-1]
                key = tuple(rekeyed[slot])
                entries[id(items[slot])] = (slot, key)
                self._place(row, key)
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
            f"buckets={len(self._buckets)}, column_answered={self.column_answered}, "
            f"column_walked={self.column_walked})"
        )


def make_bit_index(
    jas: JoinAttributeSet,
    bits: Mapping[str, int] | list[int] | tuple[int, ...],
    accountant: Accountant | None = None,
) -> BitAddressIndex:
    """Convenience constructor: build a bit-address index from a bit spec."""
    return BitAddressIndex(IndexConfiguration(jas, bits), accountant)
