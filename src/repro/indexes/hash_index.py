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

Below the accountant every table is a positional projection of one *row*
per stored tuple, its JAS values, read once at insert and kept until
remove.  An access module is the table of its own pattern.  A request
pattern that no module indexes exactly gets an uncharged *exact table*:
built from the stored rows on its first probe, kept current by insert and
remove, and handed to the module when ``set_patterns`` gives the pattern
one.  A probe row is answered with one lookup in its pattern's table and
charged what the model prescribes all the same: the whole state when no
module suits the request, the module's bucket when one does.  Every bucket
holds its tuples in insertion order, as the stored-item map does, so a
table answer is the list the ``==`` filter over the scan or the module
bucket would return, in the same order: the base admits only values for
which a dict lookup agrees with ``==`` (its value contract), stored and
probed alike.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.probe_plan import compile_matcher
from repro.indexes.base import Accountant, CostParams, RowProbe, SearchOutcome, StateIndex
from repro.utils.bitops import mask_to_indices

Row = tuple[object, ...]
#: A projection of stored rows → the tuples carrying it, by id, in
#: insertion order.
Table = dict[Row, dict[int, Mapping[str, object]]]
Projector = Callable[[tuple], Row]


def _getter(keys: tuple) -> Callable[[object], Row]:
    """``obj -> tuple(obj[k] for k in keys)`` (``itemgetter`` of one key
    returns the bare value)."""
    if len(keys) == 1:
        (key,) = keys
        return lambda obj: (obj[key],)
    return itemgetter(*keys)


def _projector(positions: tuple[int, ...], width: int) -> Projector:
    """The values at ``positions`` of a row of ``width`` values."""
    if positions == tuple(range(width)):
        return lambda row: row
    return _getter(positions)


class _AccessModule:
    """One hash index over a fixed attribute combination: its pattern's
    table."""

    __slots__ = ("pattern", "attributes", "n_attributes", "table")

    def __init__(self, pattern: AccessPattern, table: Table) -> None:
        self.pattern = pattern
        self.attributes = pattern.attributes
        self.n_attributes = pattern.n_attributes
        self.table = table


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

    # A prober captures the module choice, tables and projectors only:
    # insert and remove update those in place (a full scan reads the
    # state's size per row), so it outlives arrivals and expiry.  What
    # replaces them, ``set_patterns``, drops them.
    probers_outlive_storage = True

    def __init__(
        self,
        jas: JoinAttributeSet,
        patterns: Iterable[AccessPattern] = (),
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        super().__init__(jas, accountant, cost_params)
        # Pattern mask -> (projection, table): every module's table and the
        # exact tables of the request masks probed without an exact module.
        self._tables: dict[int, tuple[Projector, Table]] = {}
        self._modules: dict[int, _AccessModule] = {}
        for ap in patterns:
            self._add_module(ap)

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

    def _check_pattern(self, ap: AccessPattern) -> None:
        if ap.jas != self.jas:
            raise ValueError(f"pattern {ap!r} ranges over a different JAS than this index")

    def _add_module(self, ap: AccessPattern) -> None:
        """Give ``ap`` a module: its exact table if it has one, else a table
        built by scanning the state — charged as a bulk build either way."""
        self._check_pattern(ap)
        if ap.is_full_scan:
            raise ValueError("an access module must index at least one attribute")
        if ap.mask in self._modules:
            return
        self._modules[ap.mask] = _AccessModule(ap, self._table(ap.mask))
        n = self.size
        acct = self.accountant
        acct.hashes += n * ap.n_attributes
        acct.moves += n
        acct.index_bytes += n * self.cost_params.index_entry_bytes

    def _drop_module(self, mask: int) -> None:
        del self._modules[mask]
        del self._tables[mask]
        self.accountant.index_bytes -= self.size * self.cost_params.index_entry_bytes

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
        self._drop_probers()  # a prober holds its module choice
        for mask in [m for m in self._modules if m not in wanted]:
            self._drop_module(mask)
        for mask, ap in wanted.items():
            if mask not in self._modules:
                self._add_module(ap)

    # ------------------------------------------------------------------ #
    # storage

    def _table(self, mask: int) -> Table:
        """The maintained table of ``mask``; if there is none yet, one is
        built: every stored tuple under the projection of its row on
        ``mask``'s positions, in insertion order."""
        entry = self._tables.get(mask)
        if entry is None:
            project = _projector(mask_to_indices(mask), len(self.jas))
            read_row = self._read_row
            table: Table = {}
            for iid, item in self._entries.items():
                table.setdefault(project(read_row(item)), {})[iid] = item
            entry = self._tables[mask] = (project, table)
        return entry[1]

    def _insert(self, item: Mapping[str, object], row: tuple) -> Mapping[str, object]:
        iid = id(item)
        for project, table in self._tables.values():
            table.setdefault(project(row), {})[iid] = item
        acct = self.accountant
        for module in self._modules.values():
            acct.hashes += module.n_attributes
            acct.index_bytes += self.cost_params.index_entry_bytes
        return item

    def _remove(self, item: Mapping[str, object], entry: object) -> None:
        iid = id(item)
        row = self._read_row(item)
        for project, table in self._tables.values():
            key = project(row)
            bucket = table[key]
            del bucket[iid]
            if not bucket:
                del table[key]
        acct = self.accountant
        for module in self._modules.values():
            acct.hashes += module.n_attributes  # keys recomputed to locate entries
            acct.index_bytes -= self.cost_params.index_entry_bytes

    # ------------------------------------------------------------------ #
    # search

    def most_suitable_module(self, ap: AccessPattern) -> _AccessModule | None:
        """The module indexing the most attributes of ``ap`` and none outside it.

        Returns ``None`` when no module's attributes are a subset of the
        request's — the full-scan case.  Ties break toward the lowest mask
        for determinism.  A probe asks once per prober, so the choice is
        reused until the next structure change.
        """
        self._check_pattern(ap)
        best: _AccessModule | None = None
        for mask in sorted(self._modules):
            if mask & ap.mask != mask:
                continue  # indexes an attribute the request does not specify
            module = self._modules[mask]
            if best is None or module.n_attributes > best.n_attributes:
                best = module
        return best

    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        matcher = compile_matcher(ap)
        items = self._entries
        if matcher.is_full_scan:

            def probe_row(row: tuple) -> SearchOutcome:
                return SearchOutcome(list(items.values()), 1, len(items), True)

            return 0, probe_row

        # The table that answers rows of ``ap``: the exact module's, or an
        # exact table (built now if this is its first probe).
        answers = self._table(ap.mask)
        module = self.most_suitable_module(ap)
        if module is None:

            def probe_row(row: tuple) -> SearchOutcome:
                hit = answers.get(row)
                return SearchOutcome(list(hit.values()) if hit else [], 1, len(items), True)

            return 0, probe_row

        table = module.table
        # Where the module's key attributes sit in a probe row.
        key_of = _projector(
            tuple(matcher.attributes.index(a) for a in module.attributes), matcher.n_attributes
        )

        def probe_row(row: tuple) -> SearchOutcome:
            bucket = table.get(key_of(row))
            if bucket is None:
                return SearchOutcome([], 1, 0)
            hit = answers.get(row)
            return SearchOutcome(list(hit.values()) if hit else [], 1, len(bucket))

        return module.n_attributes, probe_row

    def describe(self) -> str:
        pats = ", ".join(repr(m.pattern) for m in self._modules.values())
        return f"MultiHashIndex([{pats}], size={self.size})"
