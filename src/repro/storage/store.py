"""The unified storage layer: one stream's window + index + tuner wiring.

A :class:`StateStore` owns everything physical about one stream's state —
the sliding/count window, the index structure(s), the shared accountant,
and the tuner.  It is the unary join operator the paper calls a STeM
(State Module, Raman et al., paper ref. [5]): it inserts arriving tuples,
expires them when the window slides, and locates stored tuples that
satisfy a search request's join predicates.  Storage policy lives here:

- **Admission ordering.** Count-window evictions leave the index *before*
  the arriving tuple is inserted, so the ``index_bytes``/payload peak never
  overstates occupancy by one tuple per admission.
- **Capability-driven behaviour.** "Is this state degraded", "can this
  index migrate under a budget" are class attributes of the index
  (``StateIndex.unindexed`` / ``reconfigurable``), not ``isinstance``
  checks.
- **Budgeted incremental migration.** With a finite ``migration_budget``
  the store wires itself as the tuner's migrator: a tuner-approved
  reconfiguration opens an :class:`~repro.storage.migration.IndexLifecycle`
  dual-structure phase instead of a stop-the-world rebuild; probes route
  against both structures and removals go to whichever holds the tuple
  until the old structure drains.  With ``migration_budget=None`` (the
  default) every path is bit-identical to the legacy behaviour.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner, TuneReport, TuningContext
from repro.indexes.base import CostParams, SearchOutcome, StateIndex
from repro.indexes.scan_index import ScanIndex
from repro.storage.migration import IndexLifecycle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.tuples import StreamTuple
    from repro.engine.window import CountWindow, SlidingWindow

Tuner = AMRITuner | HashIndexTuner | NullTuner


def merge_outcomes(first: SearchOutcome, second: SearchOutcome) -> SearchOutcome:
    """Fold two structures' probe results into one outcome.

    Used while a migration drains: the same probe runs against the old and
    the new structure (a tuple lives in exactly one of them, so matches
    concatenate without deduplication) and the charged work adds up.
    """
    return SearchOutcome(
        matches=first.matches + second.matches,
        buckets_visited=first.buckets_visited + second.buckets_visited,
        tuples_examined=first.tuples_examined + second.tuples_examined,
        used_full_scan=first.used_full_scan or second.used_full_scan,
    )


class StateStore:
    """One stream's storage subsystem: window + index + accountant + tuner.

    Parameters
    ----------
    stream:
        The stream this state stores.
    jas:
        The state's join-attribute set (from the query).
    index:
        The physical index over the state (any :class:`StateIndex`).
    window:
        Either a window length in time units (builds a time-based
        :class:`SlidingWindow`) or a ready window object (e.g. a
        :class:`CountWindow`).
    tuner:
        Observes probe patterns and periodically retunes the index;
        :class:`NullTuner` for non-adapting baselines.
    migration_budget:
        Tuples an index migration may relocate per tick.  ``None`` (the
        default) keeps tuner-approved migrations as legacy single-tick
        rebuilds; a positive integer makes them budgeted dual-structure
        drains (see :mod:`repro.storage.migration`).  Only meaningful for
        ``reconfigurable`` indexes driven by an :class:`AMRITuner`.
    """

    def __init__(
        self,
        stream: str,
        jas: JoinAttributeSet,
        index: StateIndex,
        window: int | SlidingWindow | CountWindow,
        tuner: Tuner | None = None,
        cost_params: CostParams | None = None,
        migration_budget: int | None = None,
    ) -> None:
        # Imported here, not at module top: the engine package imports this
        # module while initialising (via the kernel context), so a top-level
        # engine import would be circular when repro.storage loads first.
        from repro.engine.window import SlidingWindow

        if index.jas != jas:
            raise ValueError(f"index JAS {index.jas!r} does not match state JAS {jas!r}")
        self.stream = stream
        self.jas = jas
        self.index = index
        self.window = SlidingWindow(window) if isinstance(window, int) else window
        self.tuner = tuner if tuner is not None else NullTuner()
        self.cost_params = cost_params if cost_params is not None else CostParams()
        self.lifecycle = IndexLifecycle(self, budget=migration_budget)
        if migration_budget is not None and hasattr(self.tuner, "migrator"):
            # The store intercepts tuner-approved migrations so they drain
            # incrementally instead of rebuilding inside one tick.
            self.tuner.migrator = self.lifecycle.begin

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def size(self) -> int:
        """Live tuples in the state (both structures during a drain)."""
        n = self.index.size
        draining = self.lifecycle.draining
        return n if draining is None else n + draining.size

    @property
    def payload_bytes(self) -> int:
        """Memory held by stored tuple payloads (index overhead excluded)."""
        return self.size * self.cost_params.tuple_bytes

    @property
    def degraded(self) -> bool:
        """True once the state has fallen back to an unindexed full scan."""
        return self.index.unindexed

    @property
    def migration_active(self) -> bool:
        """True while an incremental migration is draining."""
        return self.lifecycle.active

    # ------------------------------------------------------------------ #
    # storage operations

    def insert(self, item: StreamTuple, now: int) -> None:
        """Admit one arriving tuple into window and index.

        Count windows may evict on admission; evicted tuples leave the
        index *before* the new tuple enters it, so the structure never
        momentarily holds capacity + 1 tuples (the memory gauge peak is
        exact).
        """
        evicted = self.window.add(item, now)
        for old in evicted:
            self._remove_from_index(old)
        self.index.insert(item)

    def expire(self, now: int) -> int:
        """Drop tuples whose window has passed; returns how many."""
        expired = self.window.expire(now)
        for item in expired:
            self._remove_from_index(item)
        return len(expired)

    def _remove_from_index(self, item: StreamTuple) -> None:
        """Remove from whichever structure holds the tuple.

        Outside a migration this is simply the active index; during a
        drain, tuples that have not been relocated yet still live in the
        draining structure.
        """
        draining = self.lifecycle.draining
        if draining is not None and draining.contains(item):
            draining.remove(item)
        else:
            self.index.remove(item)

    def probe(self, ap: AccessPattern, values: Mapping[str, object]) -> SearchOutcome:
        """Execute one search request, its values given by attribute name.

        Records the request's access pattern with the tuner's assessor —
        this is where assessment statistics come from.  While a migration
        drains, the probe runs against both structures and the results
        merge (every stored tuple lives in exactly one of them).
        """
        self.tuner.observe(ap)
        draining = self.lifecycle.draining
        if draining is None:
            return self.index.search(ap, values)
        return merge_outcomes(draining.search(ap, values), self.index.search(ap, values))

    def probe_batch(self, ap: AccessPattern, rows: list[tuple]) -> list[SearchOutcome]:
        """Execute a column of same-pattern search requests against the state.

        Each row is a value tuple aligned with ``ap.attributes``.  Equal to
        one :meth:`probe` per row in every modeled quantity: the tuner
        assessor records the column as one run of its pattern
        (pattern-only — the assessor never sees probe values, and nothing
        reads it before the column ends), and during a drain each request's
        old/new outcomes merge pairwise.  The index-level ``search_batch``
        aggregates accountant increments and lets equal rows share one
        outcome object; the engine only observes counter totals between
        probes, so the aggregation is invisible to the cost model.
        """
        self.tuner.observe_run(ap, len(rows))
        draining = self.lifecycle.draining
        if draining is None:
            return self.index.search_batch(ap, rows)
        old_outcomes = draining.search_batch(ap, rows)
        new_outcomes = self.index.search_batch(ap, rows)
        return [merge_outcomes(o, n) for o, n in zip(old_outcomes, new_outcomes)]

    def tune(self, context: TuningContext) -> TuneReport | None:
        """Run one tuning round (delegates to the tuner)."""
        return self.tuner.tune(context)

    def migration_step(self, max_moves: int | None = None):
        """Advance an in-flight migration (delegates to the lifecycle)."""
        return self.lifecycle.step(max_moves)

    def degrade_to_scan(self) -> int:
        """Swap the physical index for the full-scan fallback; returns
        the number of live tuples relocated.

        The graceful-degradation escape hatch under memory pressure: the
        index structure's bytes are released (a ``ScanIndex`` keeps only a
        per-tuple reference) and future probes pay full-scan cost instead.
        The relocation is charged as ``moves`` on the shared accountant, so
        the virtual clock sees the rebuild.  An in-flight migration is
        abandoned — both structures collapse into the fallback.  Tuning is
        disabled afterwards (there is no structure left to tune) but the
        assessor keeps recording, so a later operator can still see what
        the state is asked for.
        """
        if self.degraded:
            return 0
        live = list(self.window)
        acct = self.index.accountant
        acct.index_bytes = 0  # the old structure(s) are gone wholesale
        acct.moves += len(live)
        fallback = ScanIndex(self.jas, acct, self.cost_params)
        for item in live:
            fallback.insert(item)
        self.index = fallback
        self.lifecycle.abandon()
        self.tuner = NullTuner(getattr(self.tuner, "assessor", None))
        return len(live)

    def describe(self) -> str:
        """One-line state summary for logs."""
        return f"StateStore({self.stream}: {self.index.describe()})"
