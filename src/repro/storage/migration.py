"""Budgeted incremental index migration (the dual-structure lifecycle).

A tuner-approved reconfiguration used to be a stop-the-world rebuild: one
``reconfigure()`` call relocated every stored tuple inside a single tick,
producing exactly the migration cost spike the paper measures.  The
:class:`IndexLifecycle` replaces that with the production-grade alternative
(cf. adaptive/incremental indexing in the multicore literature): the old
structure keeps serving probes while a fresh structure under the new key
map takes over ingest, and at most ``migration_budget`` tuples move per
tick until the old structure drains.

    idle ──begin()──▶ dual-structure ──step()…──▶ drained (idle)

Invariants the lifecycle maintains:

- **Shared accountant.** Old and new structures charge the same
  :class:`~repro.indexes.base.Accountant`, so the ``index_bytes`` gauge —
  and therefore :class:`~repro.engine.resources.MemoryBreakdown` — sees the
  dual-structure memory peak for as long as both structures are live.
- **Move pricing.** Each relocated tuple is charged exactly what the
  stop-the-world path charges: the new structure's insert hashes plus one
  ``c_move`` (the bracketing insert/delete counters are refunded), so a
  finite budget re-times the same total work, it does not discount it.
- **No lost or duplicated state.** New arrivals insert into the new
  structure only; removals (expiry/eviction) route to whichever structure
  holds the tuple; probes query both and merge until drained.
- **Degenerate mode.** With ``budget=None`` a migration is the legacy
  single-tick ``reconfigure()`` — bit-identical to the golden corpus.

The lifecycle buffers ``migration_start`` / ``migration_step`` /
``migration_done`` notices (registered tracing kinds) for the kernel's
``MigrationStage`` to drain into the run's event log each tick.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bit_index import BitAddressIndex, MigrationReport
from repro.core.index_config import IndexConfiguration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.store import StateStore

MIGRATION_START = "migration_start"
MIGRATION_STEP = "migration_step"
MIGRATION_DONE = "migration_done"


def register_migration_event_kinds() -> None:
    """Register the migration event kinds with the tracing registry.

    Deferred (called from :class:`IndexLifecycle` construction) rather than
    at import time: :mod:`repro.storage` must stay importable before
    :mod:`repro.engine` finishes initialising, and the tracing import would
    close that cycle.  Registration is idempotent and thread-safe.
    """
    from repro.engine.tracing import register_event_kind

    for kind in (MIGRATION_START, MIGRATION_STEP, MIGRATION_DONE):
        register_event_kind(kind)


@dataclass(frozen=True)
class MigrationStepReport:
    """What one budgeted migration step did."""

    moved: int  # tuples relocated this step
    remaining: int  # tuples still in the draining structure
    done: bool  # the old structure fully drained this step
    index_bytes: int  # gauge after the step (shows the dual-structure peak)


class IndexLifecycle:
    """Owns one state's migration phase: idle → dual-structure → drained.

    Parameters
    ----------
    store:
        The owning :class:`~repro.storage.store.StateStore`; the lifecycle
        swaps ``store.index`` (the active structure) and exposes the
        draining one via :attr:`draining`.
    budget:
        Tuples moved per :meth:`step`.  ``None`` keeps the legacy
        stop-the-world ``reconfigure()`` (golden-identical); any positive
        integer amortises the same work over ``ceil(size / budget)`` ticks.
    """

    def __init__(self, store: "StateStore", budget: int | None = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError(f"migration_budget must be >= 1 or None, got {budget}")
        register_migration_event_kinds()
        self.store = store
        self.budget = budget
        self.draining: BitAddressIndex | None = None
        self._pending: deque = deque()
        self._total = 0
        self._moved = 0
        #: (kind, detail) notices for MigrationStage to drain into the event log.
        self.notices: list[tuple[str, dict[str, object]]] = []

    @property
    def active(self) -> bool:
        """True while old and new structures coexist."""
        return self.draining is not None

    @property
    def incremental(self) -> bool:
        """True when migrations are budgeted rather than stop-the-world."""
        return self.budget is not None

    # ------------------------------------------------------------------ #

    def begin(self, new_config: IndexConfiguration) -> MigrationReport | None:
        """Start migrating the active index to ``new_config``.

        With no budget this *is* the legacy single-tick rebuild.  With a
        budget, the current structure becomes the draining one, a fresh
        (empty) structure under ``new_config`` becomes the active index,
        and :meth:`step` relocates tuples tick by tick.  A retune arriving
        while a drain is still in flight force-finishes the old drain
        first — two draining structures would make removal routing
        ambiguous.
        """
        index = self.store.index
        if self.budget is None:
            return index.reconfigure(new_config)
        if not index.reconfigurable:
            raise RuntimeError(
                f"{type(index).__name__} does not support key-map migration"
            )
        if self.active:
            self.step(max_moves=self.draining.size, forced=True)
        old = index
        old_config = old.config
        fresh = type(old)(
            new_config, old.accountant, old.cost_params, old.value_mapper
        )
        self.draining = old
        self._pending = deque(old.items())
        self._total = old.size
        self._moved = 0
        self.store.index = fresh
        tuner = self.store.tuner
        if getattr(tuner, "index", None) is old:
            tuner.index = fresh  # the tuner now reasons about the new structure
        self.notices.append(
            (
                MIGRATION_START,
                dict(
                    old=repr(old_config),
                    new=repr(new_config),
                    tuples=self._total,
                    budget=self.budget,
                ),
            )
        )
        return MigrationReport(
            old_config=old_config, new_config=new_config, tuples_moved=0, hashes=0
        )

    def step(self, max_moves: int | None = None, *, forced: bool = False) -> MigrationStepReport | None:
        """Relocate up to ``max_moves`` (default: the budget) tuples.

        Tuples that expired or were evicted since the drain began are
        skipped without consuming budget (their removal already routed to
        the draining structure).  Returns ``None`` when idle.
        """
        draining = self.draining
        if draining is None:
            return None
        limit = self.budget if max_moves is None else max_moves
        active = self.store.index
        acct = active.accountant
        moved = 0
        while self._pending and moved < limit:
            item = self._pending.popleft()
            if not draining.contains(item):
                continue  # expired/evicted mid-drain; nothing left to move
            draining.remove(item)
            active.insert(item)
            # A relocation is one move, not a delete + fresh insert: refund
            # the bracketing counters (the insert hashes stand — the new
            # structure really rehashes) and charge c_move, mirroring the
            # stop-the-world reconfigure() pricing exactly.
            acct.deletes -= 1
            acct.inserts -= 1
            acct.moves += 1
            moved += 1
        self._moved += moved
        remaining = draining.size
        done = remaining == 0
        detail: dict[str, object] = dict(
            moved=moved,
            remaining=remaining,
            total=self._total,
            index_bytes=acct.index_bytes,
        )
        if forced:
            detail["forced"] = True
        self.notices.append((MIGRATION_STEP, detail))
        if done:
            self.draining = None
            self._pending.clear()
            self.notices.append(
                (MIGRATION_DONE, dict(tuples=self._moved, total=self._total))
            )
        return MigrationStepReport(
            moved=moved, remaining=remaining, done=done, index_bytes=acct.index_bytes
        )

    def abandon(self) -> None:
        """Drop the dual-structure phase without moving anything further.

        Used when the store degrades to a full scan: both structures are
        collapsed into the fallback by the store itself, so the lifecycle
        just forgets the drain (no extra charges — the degrade path already
        zeroes the gauge and prices the rebuild).
        """
        if self.draining is not None:
            self.draining = None
            self._pending.clear()

    def drain_notices(self) -> list[tuple[str, dict[str, object]]]:
        """Hand the buffered event notices to the caller (clears the buffer)."""
        out = self.notices
        self.notices = []
        return out


def plan_steps(tuples: int, budget: int | None) -> int:
    """Ticks a drain of ``tuples`` takes under ``budget`` (1 when unbudgeted)."""
    if budget is None or tuples <= 0:
        return 1
    return -(-tuples // budget)  # ceil division


@dataclass(frozen=True)
class MigrationPlan:
    """Projected shape of one migration before it runs."""

    tuples: int  # stored tuples to relocate
    steps: int  # ticks the drain takes under the budget
    total_cost: float  # cost units over the whole drain (budget-independent)
    per_step_cost: float  # worst-case cost units charged in any one tick
    dual_peak_bytes: int  # projected extra bytes while both structures live


class MigrationPlanner:
    """Sizes a migration: how long it drains, what it costs, what it holds.

    The planner makes the dual-structure trade-off explicit *before*
    committing: a finite budget divides the per-tick cost spike by
    ``steps`` but holds both structures' memory for ``steps`` ticks.  The
    migration benchmark and the selector diagnostics consume these plans;
    the gate inside :class:`~repro.core.tuner.AMRITuner` still amortises
    ``total_cost`` (identical in both modes, so budgeting never changes
    *whether* a migration happens — only how it is paid for).
    """

    def __init__(self, budget: int | None, params=None) -> None:
        if budget is not None and budget < 1:
            raise ValueError(f"migration_budget must be >= 1 or None, got {budget}")
        from repro.indexes.base import CostParams

        self.budget = budget
        self.params = params if params is not None else CostParams()

    def plan(self, index: BitAddressIndex, new_config: IndexConfiguration) -> MigrationPlan:
        """Project one migration of ``index`` to ``new_config``."""
        from repro.core.cost_model import migration_cost

        n = index.size
        steps = plan_steps(n, self.budget)
        total = migration_cost(index.config, new_config, n, self.params)
        per_step = total if steps <= 1 else migration_cost(
            index.config, new_config, min(self.budget or n, n), self.params
        )
        # While both structures are live the new one grows toward one slot
        # reference per relocated tuple (plus buckets, data-dependent) on
        # top of the old structure's unreleased bytes.
        dual_peak = n * self.params.bucket_slot_bytes if self.budget is not None else 0
        return MigrationPlan(
            tuples=n,
            steps=steps,
            total_cost=total,
            per_step_cost=per_step,
            dual_peak_bytes=dual_peak,
        )
