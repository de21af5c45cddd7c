"""Multi-hash-index access modules — the state-of-the-art AMR baseline.

Raman et al. (paper ref. [5]) attach to each state several *access modules*,
each a hash index over one combination of join attributes.  A search request
picks the most suitable module: the one indexing the largest subset of the
request's attributes and nothing outside them; if none qualifies the state is
fully scanned (Section I-A's worked example).

The scheme's weakness, which Section V demonstrates, is maintenance: every
stored tuple pays one key computation *per module* on insert and carries one
key+pointer entry *per module* in memory.  Under DSMS update rates this
overhead compounds until the system exhausts memory — our accountant charges
exactly those costs so the engine reproduces that failure mode.

``MultiHashIndex.set_patterns`` retunes which attribute combinations have
modules (used by the adaptive-hash-index trials of Figure 6): newly created
modules are bulk-built by scanning the state, dropped modules free their
memory.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.probe_plan import compile_matcher
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex

HashKey = tuple[object, ...]


class _AccessModule:
    """One hash index over a fixed attribute combination."""

    __slots__ = ("pattern", "attributes", "n_attributes", "table")

    def __init__(self, pattern: AccessPattern) -> None:
        if pattern.is_full_scan:
            raise ValueError("an access module must index at least one attribute")
        self.pattern = pattern
        # Hoisted from the pattern: ``attributes`` is a derived property
        # walked on every key computation otherwise.
        self.attributes = pattern.attributes
        self.n_attributes = pattern.n_attributes
        self.table: dict[HashKey, dict[int, Mapping[str, object]]] = {}

    def key_for(self, item: Mapping[str, object]) -> HashKey:
        return tuple(item[a] for a in self.attributes)

    def add(self, item: Mapping[str, object]) -> None:
        self.table.setdefault(self.key_for(item), {})[id(item)] = item

    def discard(self, item: Mapping[str, object]) -> None:
        key = self.key_for(item)
        bucket = self.table.get(key)
        if bucket is not None:
            bucket.pop(id(item), None)
            if not bucket:
                del self.table[key]


class MultiHashIndex(StateIndex):
    """A set of per-access-pattern hash indices over one state.

    Parameters
    ----------
    jas:
        The state's join-attribute set.
    patterns:
        The attribute combinations to index initially (each a non-full-scan
        :class:`AccessPattern` over ``jas``).
    """

    def __init__(
        self,
        jas: JoinAttributeSet,
        patterns: Iterable[AccessPattern] = (),
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        super().__init__(jas, accountant, cost_params)
        self._items: dict[int, Mapping[str, object]] = {}
        self._modules: dict[int, _AccessModule] = {}
        # request mask -> most suitable module (or None); derived from the
        # module set, so it drops whenever modules are added or removed.
        self._suitable: dict[int, _AccessModule | None] = {}
        for ap in patterns:
            self._add_module(ap, bulk_build=False)

    # ------------------------------------------------------------------ #
    # configuration

    @property
    def patterns(self) -> tuple[AccessPattern, ...]:
        """The indexed attribute combinations, by ascending mask."""
        return tuple(self._modules[m].pattern for m in sorted(self._modules))

    @property
    def module_count(self) -> int:
        """Number of access modules currently maintained."""
        return len(self._modules)

    @property
    def size(self) -> int:
        return len(self._items)

    def _check_pattern(self, ap: AccessPattern) -> None:
        if ap.jas != self.jas:
            raise ValueError(f"pattern {ap!r} ranges over a different JAS than this index")

    def _add_module(self, ap: AccessPattern, *, bulk_build: bool) -> None:
        self._check_pattern(ap)
        if ap.mask in self._modules:
            return
        module = _AccessModule(ap)
        self._modules[ap.mask] = module
        self._suitable.clear()
        acct = self.accountant
        if bulk_build:
            for item in self._items.values():
                module.add(item)
            n = len(self._items)
            acct.hashes += n * ap.n_attributes
            acct.moves += n
            acct.index_bytes += n * self.cost_params.index_entry_bytes

    def _drop_module(self, mask: int) -> None:
        del self._modules[mask]
        self._suitable.clear()
        self.accountant.index_bytes -= len(self._items) * self.cost_params.index_entry_bytes

    def set_patterns(self, patterns: Iterable[AccessPattern]) -> None:
        """Retune the module set: build missing modules, drop the rest.

        Building a module scans the whole state (charged); dropping one
        frees its memory immediately.
        """
        wanted = {ap.mask: ap for ap in patterns}
        for ap in wanted.values():
            self._check_pattern(ap)
            if ap.is_full_scan:
                raise ValueError("an access module must index at least one attribute")
        for mask in [m for m in self._modules if m not in wanted]:
            self._drop_module(mask)
        for mask, ap in wanted.items():
            if mask not in self._modules:
                self._add_module(ap, bulk_build=True)

    # ------------------------------------------------------------------ #
    # storage

    def insert(self, item: Mapping[str, object]) -> None:
        if id(item) in self._items:
            raise ValueError("item is already stored in this index")
        self._items[id(item)] = item
        acct = self.accountant
        acct.inserts += 1
        acct.index_bytes += self.cost_params.bucket_slot_bytes
        for module in self._modules.values():
            module.add(item)
            acct.hashes += module.n_attributes
            acct.index_bytes += self.cost_params.index_entry_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        if id(item) not in self._items:
            raise KeyError("item was never inserted into this index")
        del self._items[id(item)]
        acct = self.accountant
        acct.deletes += 1
        acct.index_bytes -= self.cost_params.bucket_slot_bytes
        for module in self._modules.values():
            module.discard(item)
            acct.hashes += module.n_attributes  # keys recomputed to locate entries
            acct.index_bytes -= self.cost_params.index_entry_bytes

    def contains(self, item: Mapping[str, object]) -> bool:
        return id(item) in self._items

    def items(self) -> Iterator[Mapping[str, object]]:
        """Iterate every stored item."""
        return iter(self._items.values())

    # ------------------------------------------------------------------ #
    # search

    def most_suitable_module(self, ap: AccessPattern) -> _AccessModule | None:
        """The module indexing the most attributes of ``ap`` and none outside it.

        Returns ``None`` when no module's attributes are a subset of the
        request's — the full-scan case.  Ties break toward the lowest mask
        for determinism.  The choice depends only on the request mask and
        the module set, so it is cached until the modules change.
        """
        self._check_pattern(ap)
        try:
            return self._suitable[ap.mask]
        except KeyError:
            pass
        best: _AccessModule | None = None
        for mask in sorted(self._modules):
            if mask & ap.mask != mask:
                continue  # indexes an attribute the request does not specify
            module = self._modules[mask]
            if best is None or module.n_attributes > best.n_attributes:
                best = module
        self._suitable[ap.mask] = best
        return best

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        matcher = compile_matcher(ap)
        select = matcher.select
        if matcher.is_full_scan:
            module = None
        else:
            module = self._suitable.get(ap.mask, self)
            if module is self:  # not cached yet (sentinel: self is never a module)
                module = self.most_suitable_module(ap)
        if module is None:
            items = self._items

            def probe_row(row: tuple) -> SearchOutcome:
                return SearchOutcome(select((items.values(),), row), 1, len(items), True)

            return 0, probe_row

        table = module.table
        # Where the module's key attributes sit in a probe row.
        slots = [matcher.attributes.index(a) for a in module.attributes]

        def probe_row(row: tuple) -> SearchOutcome:
            bucket = table.get(tuple([row[i] for i in slots]))
            if bucket is None:
                return SearchOutcome([], 1, 0)
            return SearchOutcome(select((bucket.values(),), row), 1, len(bucket))

        return module.n_attributes, probe_row

    def describe(self) -> str:
        pats = ", ".join(repr(m.pattern) for m in self._modules.values())
        return f"MultiHashIndex([{pats}], size={len(self._items)})"
