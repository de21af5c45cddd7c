"""The common interface and cost/memory accounting for state indexes.

Every index scheme in the repository — the AMRI bit-address index, the
Raman-style multi-hash-index access modules, and the full-scan fallback —
implements :class:`StateIndex` and charges all of its work to an
:class:`Accountant`.  The accountant is the bridge between index internals
and the engine's virtual clock: the engine converts accounted operations to
cost units via :class:`CostParams` and converts accounted bytes to pressure
against the memory budget.

Accounting is *model-faithful* rather than wall-clock-faithful: e.g. a
bit-address search with wildcard bits is charged for the bucket ids a real
system would enumerate (``2**wildcard_bits``, capped at the live bucket
count) even though our sparse implementation finds the matching buckets via
inverted fragment maps without enumerating.  This keeps Python wall-clock low
while preserving the economics that drive the paper's results.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields
from operator import itemgetter

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.probe_plan import compile_matcher
from repro.utils.bitops import EXACT_KEY_TYPES
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class CostParams:
    """Unit costs (Table I's ``C_h``/``C_c`` plus engine constants).

    All values are in abstract *cost units*; only ratios matter.  Memory
    figures are in bytes and approximate a compact C implementation (the
    paper ran on a 4 GB machine; our budgets are scaled down accordingly).
    """

    c_hash: float = 1.0  # C_h: computing one hash / fragment
    c_compare: float = 1.0  # C_c: one value comparison against a stored tuple
    c_bucket: float = 0.25  # visiting one bucket location during a search
    c_insert: float = 1.0  # storing one tuple in a state (index-independent)
    c_delete: float = 1.0  # expiring one tuple from a state
    c_move: float = 0.5  # relocating one tuple during index migration
    c_output: float = 0.5  # emitting one result tuple
    c_route: float = 0.2  # router decision per work item

    tuple_bytes: int = 96  # payload of one stored stream tuple
    index_entry_bytes: int = 64  # hash-index entry: map node + boxed composite key + ref
    bucket_bytes: int = 48  # per live bucket (dict slot + list header)
    bucket_slot_bytes: int = 8  # per tuple reference inside a bucket
    queue_item_bytes: int = 240  # one backlogged search request (tuple + route state)
    stat_entry_bytes: int = 32  # one assessment table entry

    def __post_init__(self) -> None:
        # A negative unit cost would fail at its first charge and a byte
        # size below 1 divides by zero when the backlog is shed: reject
        # both here, by field name.  A zero unit cost is legal.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("c_"):
                check_non_negative(f.name, value)
            elif not value >= 1:
                raise ValueError(f"{f.name} must be >= 1, got {value!r}")


@dataclass(slots=True)
class Accountant:
    """Mutable tally of index work and index memory.

    Indexes *add to* operation counters as they work and *adjust* byte
    gauges as structures grow or shrink.  ``cost()`` converts the operation
    counters to cost units; callers typically snapshot counters around an
    operation to charge its marginal cost to the virtual clock.
    """

    hashes: int = 0
    comparisons: int = 0
    buckets_visited: int = 0
    tuples_examined: int = 0
    inserts: int = 0
    deletes: int = 0
    moves: int = 0

    index_bytes: int = 0  # current index structure memory (gauge)

    def cost(self, params: CostParams) -> float:
        """Total cost units represented by the operation counters."""
        return (
            self.hashes * params.c_hash
            + self.comparisons * params.c_compare
            + self.buckets_visited * params.c_bucket
            + self.tuples_examined * params.c_compare
            + self.inserts * params.c_insert
            + self.deletes * params.c_delete
            + self.moves * params.c_move
        )

    def snapshot(self) -> "Accountant":
        """A frozen copy of the current counters (for marginal-cost deltas)."""
        return Accountant(
            hashes=self.hashes,
            comparisons=self.comparisons,
            buckets_visited=self.buckets_visited,
            tuples_examined=self.tuples_examined,
            inserts=self.inserts,
            deletes=self.deletes,
            moves=self.moves,
            index_bytes=self.index_bytes,
        )

    def cost_since(self, before: "Accountant", params: CostParams) -> float:
        """Cost units accrued since ``before`` was snapshotted."""
        return self.cost(params) - before.cost(params)


@dataclass(slots=True)
class SearchOutcome:
    """Result of one index probe: the matches plus what the probe cost."""

    matches: list[Mapping[str, object]] = field(default_factory=list)
    buckets_visited: int = 0
    tuples_examined: int = 0
    used_full_scan: bool = False

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self):
        return iter(self.matches)


#: One value row (aligned with the pattern's attributes) → its outcome.
RowProbe = Callable[[tuple], SearchOutcome]

# The value contract: an index stores and probes values of
# ``EXACT_KEY_TYPES`` (from :mod:`repro.utils.bitops`), NaN excepted.  For
# these a dict keyed by values finds exactly what ``==`` finds, and so does
# a compare of stable value hashes: equal values hash equally, across the
# numeric types too (``1 == 1.0 == True``), and every value equals itself.
# A value of ``_SELF_EQUAL_TYPES`` is within it at a glance; a float still
# needs the NaN test.
_SELF_EQUAL_TYPES = EXACT_KEY_TYPES - {float}


class UnkeyableValueError(ValueError):
    """A join value no index stores or probes: its type is outside
    ``EXACT_KEY_TYPES``, or it is NaN.  ``stream`` is set by the state that
    refused it, when there is one."""

    def __init__(self, attribute: str, value_type: type) -> None:
        super().__init__(attribute, value_type)
        self.attribute = attribute
        self.value_type = value_type
        self.stream: str | None = None

    def __str__(self) -> str:
        where = "" if self.stream is None else f"stream {self.stream!r}: "
        what = "NaN" if self.value_type is float else f"a value of type {self.value_type.__name__}"
        return (
            f"{where}join attribute {self.attribute!r} holds {what}; an index keys "
            "int, float, str, bytes, bool and None values only, and no NaN"
        )


def _check_row(attributes: tuple[str, ...], row: tuple) -> None:
    """Refuse ``row`` (aligned with ``attributes``) with
    :class:`UnkeyableValueError` at its first value outside
    ``EXACT_KEY_TYPES`` or NaN."""
    for name, value in zip(attributes, row):
        if type(value) not in EXACT_KEY_TYPES or value != value:
            raise UnkeyableValueError(name, type(value))


def _short_row(row: tuple, ap: AccessPattern) -> KeyError:
    """The refusal of a probe row whose length is not ``ap``'s attribute
    count."""
    return KeyError(
        f"probe row {row!r} does not supply the {ap.n_attributes} "
        f"attribute value(s) required by {ap!r}"
    )


def _row_reader(names: tuple[str, ...]) -> Callable[[Mapping[str, object]], tuple]:
    """``item -> row``: the item's values of ``names``, in order, each read
    once.  A missing attribute raises the item's ``KeyError(name)``, and a
    row with a value outside ``_SELF_EQUAL_TYPES`` goes to
    :func:`_check_row`.  Specialised to the attribute count, like the row
    selectors of :mod:`repro.core.probe_plan`: a plain row costs one type
    lookup per value and no call."""
    plain = _SELF_EQUAL_TYPES
    n = len(names)
    if n == 1:
        (a,) = names

        def read_row(item):
            va = item[a]
            if type(va) not in plain:
                _check_row(names, (va,))
            return (va,)
    elif n == 2:
        a, b = names

        def read_row(item):
            va = item[a]
            vb = item[b]
            if type(va) not in plain or type(vb) not in plain:
                _check_row(names, (va, vb))
            return (va, vb)
    elif n == 3:
        a, b, c = names

        def read_row(item):
            va = item[a]
            vb = item[b]
            vc = item[c]
            if type(va) not in plain or type(vb) not in plain or type(vc) not in plain:
                _check_row(names, (va, vb, vc))
            return (va, vb, vc)
    else:
        getter = itemgetter(*names)

        def read_row(item):
            row = getter(item)
            if not plain.issuperset(map(type, row)):
                _check_row(names, row)
            return row

    return read_row


class StateIndex(abc.ABC):
    """Interface every state-index scheme implements.

    Items are mappings from attribute name to value (engine tuples satisfy
    this).  Matching is exact equality on each attribute the access pattern
    specifies.  A backend writes three hooks: ``_insert`` and ``_remove``,
    which keep its own structure current and charge what that structure
    costs, and ``_row_prober``.  The base owns the rest of the upkeep: the
    one ``id -> entry`` map, the identity checks, the insert / delete
    charges, ``size`` and the prober cache.

    The base also holds the one value contract.  Every JAS value an item
    stores, and every value a probe row carries, is of ``EXACT_KEY_TYPES``
    and not NaN; any other is refused with :class:`UnkeyableValueError`
    before anything is charged, and an item that lacks a JAS attribute with
    ``KeyError(attribute)``.  No hook sees any other value.
    """

    #: Every probe is a full scan — this *is* the degraded state
    #: (read by :attr:`~repro.storage.store.StateStore.degraded`).
    unindexed = False
    #: Its probers capture nothing ``insert`` / ``remove`` replace, only
    #: structures those two update in place, so both keep the cached
    #: probers.  Off by default: a backend whose prober captures a size, a
    #: count or a slice has its probers dropped on every insert and remove.
    probers_outlive_storage = False
    #: Its inserts and probes read join-value hashes from the memo of
    #: :mod:`repro.utils.bitops`, which the engine's arrivals fill in one
    #: pass per tick for such a state only.
    hashes_values = False

    def __init__(
        self,
        jas: JoinAttributeSet,
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        self.jas = jas
        self.accountant = accountant if accountant is not None else Accountant()
        self.cost_params = cost_params if cost_params is not None else CostParams()
        # A stored item's row: its JAS values in JAS order, checked.
        self._read_row = _row_reader(jas.names)
        # ``id(item) -> entry`` in insertion order: what ``_insert``
        # returned for each stored item, handed back to ``_remove``.
        self._entries: dict[int, object] = {}
        # Pattern mask -> ``_row_prober(ap)``, until ``_drop_probers()``.
        self._probers: dict[int, tuple[int, RowProbe]] = {}

    # -- storage ------------------------------------------------------- #

    def insert(self, item: Mapping[str, object]) -> None:
        """Add ``item`` to the index.

        Storage is by identity: an object that is already stored is refused
        with ``ValueError`` before anything is charged (a second copy would
        be counted twice and one ``remove`` would leave a phantom).  So is
        an item that lacks a JAS attribute (``KeyError``) or holds a value
        outside the contract (:class:`UnkeyableValueError`).
        """
        iid = id(item)
        entries = self._entries
        if iid in entries:
            raise ValueError("item is already stored in this index")
        entries[iid] = self._insert(item, self._read_row(item))
        if not self.probers_outlive_storage:
            self._probers.clear()  # ``_drop_probers()``, without the call
        acct = self.accountant
        acct.inserts += 1
        acct.index_bytes += self.cost_params.bucket_slot_bytes

    def remove(self, item: Mapping[str, object]) -> None:
        """Remove a previously inserted ``item`` (identity-based); an item
        that is not stored is refused with ``KeyError`` before anything is
        charged."""
        iid = id(item)
        entries = self._entries
        entry = entries.get(iid)
        if entry is None:
            raise KeyError("item was never inserted into this index")
        self._remove(item, entry)
        del entries[iid]
        if not self.probers_outlive_storage:
            self._probers.clear()  # ``_drop_probers()``, without the call
        acct = self.accountant
        acct.deletes += 1
        acct.index_bytes -= self.cost_params.bucket_slot_bytes

    @abc.abstractmethod
    def _insert(self, item: Mapping[str, object], row: tuple) -> object:
        """Put a new ``item`` into the backend's structure and return its
        entry (never ``None``): whatever ``_remove`` needs to take it out
        again.

        ``row`` is the item's JAS values in JAS order, read once by the
        base and within the value contract, so every value keys a dict and
        has a stable hash.  Charges what the structure costs beyond the
        base's one insert and one slot.
        """

    @abc.abstractmethod
    def _remove(self, item: Mapping[str, object], entry: object) -> None:
        """Take a stored ``item`` out of the backend's structure; ``entry``
        is what ``_insert`` returned for it."""

    def _drop_probers(self) -> None:
        """Drop every cached prober.  A backend calls this from every change
        other than ``insert`` / ``remove`` that replaces what a prober may
        have captured (a key map, a module set, a table); a caller may also
        call it after changing what a prober reads only when it is built (a
        module constant)."""
        self._probers.clear()

    @abc.abstractmethod
    def _row_prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        """The per-pattern half of a probe.

        Returns ``(hashes, probe_row)``: the hash computations one probe of
        ``ap`` is charged, and a function from one value row (a tuple
        aligned with ``ap.attributes``, its values within the value
        contract) to that probe's :class:`SearchOutcome`.  Everything that depends only on the
        pattern and the structure (the compiled plan, the module choice,
        the charged bucket visits) is resolved here; ``probe_row`` reads
        the structure and charges nothing — the caller charges ``hashes``
        and the outcome's ``buckets_visited`` / ``tuples_examined`` once
        per row, shared outcomes included.

        The pair is cached per pattern mask.  Every ``_drop_probers`` call
        drops it, and so does every ``insert`` / ``remove`` unless the
        class sets :attr:`probers_outlive_storage`; it may capture what only
        those replace, and nothing that a non-mutating call can change.  It
        never refers to the index itself: the cache would keep both alive in
        a cycle until the cyclic GC runs.
        """

    def _prober(self, ap: AccessPattern) -> tuple[int, RowProbe]:
        """The cached ``_row_prober(ap)`` (``ap`` already checked against
        this JAS, so its mask names one pattern)."""
        prober = self._probers.get(ap.mask)
        if prober is None:
            prober = self._probers[ap.mask] = self._row_prober(ap)
        return prober

    def search_batch(self, ap: AccessPattern, rows: list[tuple]) -> list[SearchOutcome]:
        """Probe one access pattern with a column of value rows.

        Each row is a tuple aligned with ``ap.attributes``; a full-scan
        pattern takes empty rows and returns every stored item.  Returns
        one :class:`SearchOutcome` per row, in order: all stored items
        equal to the row on every attribute ``ap`` names.  The accountant
        is charged per row exactly what one probe at a time would charge
        (the engine only reads counter totals between columns, so the
        increments are aggregated), and equal rows share one probe and one
        outcome object — batched stream workloads draw values from small
        domains, so this dedup is where the wall-clock win comes from.
        Shared outcomes are safe to alias: no consumer mutates
        ``SearchOutcome.matches`` in place.

        A pattern over a foreign JAS raises ``ValueError``, a row of the
        wrong length ``KeyError`` and a row holding a value outside the
        contract :class:`UnkeyableValueError`, all before anything is
        charged.  The contract is checked once per distinct row, when the
        column first meets it: a row equal to one answered earlier in the
        column shares that answer unchecked.
        """
        self._check_jas(ap)
        n_attributes = ap.n_attributes
        plain = _SELF_EQUAL_TYPES
        if len(rows) == 1:
            # One row (most columns): the same checks in the same order and
            # the same three writes, with no dedup.
            row = rows[0]
            if len(row) != n_attributes:
                raise _short_row(row, ap)
            hashes, probe_row = self._prober(ap)
            for value in row:
                if type(value) not in plain:
                    _check_row(compile_matcher(ap).attributes, row)
                    break
            outcome = probe_row(row)
            acct = self.accountant
            acct.hashes += hashes
            acct.buckets_visited += outcome.buckets_visited
            acct.tuples_examined += outcome.tuples_examined
            return [outcome]
        for row in rows:
            if len(row) != n_attributes:
                raise _short_row(row, ap)
        if not rows:
            return []
        hashes, probe_row = self._prober(ap)
        seen: dict[tuple, SearchOutcome] = {}
        outcomes: list[SearchOutcome] = []
        visited = examined = 0
        for row in rows:
            try:
                outcome = seen.get(row)
            except TypeError:  # an unhashable value, refused below
                outcome = None
            if outcome is None:
                for value in row:
                    if type(value) not in plain:
                        _check_row(compile_matcher(ap).attributes, row)
                        break
                outcome = seen[row] = probe_row(row)
            visited += outcome.buckets_visited
            examined += outcome.tuples_examined
            outcomes.append(outcome)
        acct = self.accountant
        acct.hashes += hashes * len(rows)
        acct.buckets_visited += visited
        acct.tuples_examined += examined
        return outcomes

    def search(self, ap: AccessPattern, values: Mapping[str, object]) -> SearchOutcome:
        """One probe, by attribute name: all stored items equal to
        ``values`` on every attribute in ``ap``.

        ``values`` must define at least the attributes ``ap`` names
        (``KeyError`` otherwise); it is read into a row, checked and handed
        to the same hook as a :meth:`search_batch` row, charged the same.
        """
        self._check_jas(ap)
        attributes = compile_matcher(ap).attributes
        for name in attributes:
            if name not in values:
                raise KeyError(f"probe values missing attribute {name!r} required by {ap!r}")
        row = tuple([values[name] for name in attributes])
        _check_row(attributes, row)
        hashes, probe_row = self._prober(ap)
        outcome = probe_row(row)
        acct = self.accountant
        acct.hashes += hashes
        acct.buckets_visited += outcome.buckets_visited
        acct.tuples_examined += outcome.tuples_examined
        return outcome

    def _check_jas(self, ap: AccessPattern) -> None:
        if ap.jas is not self.jas and ap.jas != self.jas:
            raise ValueError(f"probe pattern {ap!r} ranges over a different JAS than this index")

    # -- introspection --------------------------------------------------- #

    @property
    def size(self) -> int:
        """Number of stored items."""
        return len(self._entries)

    @property
    def memory_bytes(self) -> int:
        """Current index-structure memory (excludes tuple payloads)."""
        return self.accountant.index_bytes

    def describe(self) -> str:
        """One-line human-readable description of the configuration."""
        return f"{type(self).__name__}(jas={list(self.jas.names)}, size={self.size})"
