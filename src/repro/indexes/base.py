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
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.probe_plan import compile_matcher


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


@dataclass
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


class StateIndex(abc.ABC):
    """Interface every state-index scheme implements.

    Items are mappings from attribute name to value (engine tuples satisfy
    this).  Matching is exact equality on each attribute the access pattern
    specifies.  Implementations must keep their :class:`Accountant` gauges
    and counters current.
    """

    def __init__(
        self,
        jas: JoinAttributeSet,
        accountant: Accountant | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        self.jas = jas
        self.accountant = accountant if accountant is not None else Accountant()
        self.cost_params = cost_params if cost_params is not None else CostParams()

    # -- storage ------------------------------------------------------- #

    @abc.abstractmethod
    def insert(self, item: Mapping[str, object]) -> None:
        """Add ``item`` to the index."""

    @abc.abstractmethod
    def remove(self, item: Mapping[str, object]) -> None:
        """Remove a previously inserted ``item`` (identity-based)."""

    @abc.abstractmethod
    def search(self, ap: AccessPattern, values: Mapping[str, object]) -> SearchOutcome:
        """All stored items equal to ``values`` on every attribute in ``ap``.

        ``values`` must define at least the attributes ``ap`` names.  A
        full-scan pattern returns every stored item.
        """

    def search_batch(
        self, ap: AccessPattern, values_list: list[Mapping[str, object]]
    ) -> list[SearchOutcome]:
        """Probe the same access pattern with a whole column of value rows.

        Returns one :class:`SearchOutcome` per entry of ``values_list``, in
        order.  The contract is **bit-identity with the serial path**: the
        outcomes, the accountant counter totals, and every raised error must
        be exactly what ``[self.search(ap, v) for v in values_list]`` would
        produce.  Implementations may aggregate integer counter increments
        and share work between identical probe rows (the accountant only
        ever observes counter totals between engine observation points), but
        must not change *what* is charged or matched.

        This base implementation is the literal serial loop — trivially
        correct for any backend; hot backends override it with vectorized
        versions.
        """
        search = self.search
        return [search(ap, values) for values in values_list]

    def contains(self, item: Mapping[str, object]) -> bool:
        """Whether ``item`` is currently stored (identity-based, free).

        Used by the storage layer to route removals while two structures
        coexist during an incremental migration; it is pure bookkeeping,
        so implementations charge nothing to the accountant.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support contains()")

    # -- introspection --------------------------------------------------- #

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of stored items."""

    @property
    def memory_bytes(self) -> int:
        """Current index-structure memory (excludes tuple payloads)."""
        return self.accountant.index_bytes

    def describe(self) -> str:
        """One-line human-readable description of the configuration."""
        return f"{type(self).__name__}(jas={list(self.jas.names)}, size={self.size})"

    # -- helpers for implementations ------------------------------------ #

    def _check_probe(self, ap: AccessPattern, values: Mapping[str, object]) -> None:
        if ap.jas != self.jas:
            raise ValueError(f"probe pattern {ap!r} ranges over a different JAS than this index")
        for name in ap.attributes:
            if name not in values:
                raise KeyError(f"probe values missing attribute {name!r} required by {ap!r}")

    def _probe_matcher(self, ap: AccessPattern, values: Mapping[str, object]):
        """``_check_probe`` plus the compiled matcher, in one pass.

        The hot-path spelling for implementations: same JAS/presence
        checks with the same error messages, but the attribute tuple comes
        from the memoized :func:`~repro.core.probe_plan.compile_matcher`
        instead of the per-call ``ap.attributes`` property walk, and the
        returned matcher carries a specialised equality filter.
        """
        if ap.jas is not self.jas and ap.jas != self.jas:
            raise ValueError(f"probe pattern {ap!r} ranges over a different JAS than this index")
        matcher = compile_matcher(ap)
        for name in matcher.attributes:
            if name not in values:
                raise KeyError(f"probe values missing attribute {name!r} required by {ap!r}")
        return matcher

    @staticmethod
    def _matches(item: Mapping[str, object], ap: AccessPattern, values: Mapping[str, object]) -> bool:
        return all(item[a] == values[a] for a in ap.attributes)
