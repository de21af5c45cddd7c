"""The unified storage layer: one stream's window + index + tuner wiring.

A :class:`StateStore` owns everything physical about one stream's state —
the sliding window, the index structure, the shared accountant, and the
tuner.  It is the unary join operator the paper calls a STeM
(State Module, Raman et al., paper ref. [5]): it inserts arriving tuples,
expires them when the window slides, and locates stored tuples that
satisfy a search request's join predicates.  Storage policy lives here:

- **Admission is all or nothing.** A tuple of another stream, an arrival
  out of time order and a join value the index refuses are each refused
  before window or index changes, so no admission needs undoing.
- **Capability-driven behaviour.** "Is this state degraded" is a class
  attribute of the index (``StateIndex.unindexed``), not an
  ``isinstance`` check.
- **Stop-the-world migration.** A tuner-approved migration is one
  ``index.reconfigure()`` inside the tuning round (the paper's model,
  priced by the tuner's gate), so the store holds exactly one structure.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner, TuneReport, TuningContext
from repro.indexes.base import CostParams, SearchOutcome, StateIndex, UnkeyableValueError
from repro.indexes.scan_index import ScanIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.tuples import StreamTuple
    from repro.engine.window import SlidingWindow

Tuner = AMRITuner | HashIndexTuner | NullTuner


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
        Either a window length in time units or a ready
        :class:`SlidingWindow`.
    tuner:
        Observes probe patterns and periodically retunes the index;
        :class:`NullTuner` for non-adapting baselines.
    """

    def __init__(
        self,
        stream: str,
        jas: JoinAttributeSet,
        index: StateIndex,
        window: int | SlidingWindow,
        tuner: Tuner | None = None,
        cost_params: CostParams | None = None,
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

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def size(self) -> int:
        """Live tuples in the state."""
        return self.index.size

    @property
    def payload_bytes(self) -> int:
        """Memory held by stored tuple payloads (index overhead excluded)."""
        return self.size * self.cost_params.tuple_bytes

    @property
    def degraded(self) -> bool:
        """True once the state has fallen back to an unindexed full scan."""
        return self.index.unindexed

    # ------------------------------------------------------------------ #
    # storage operations

    def insert(self, item: StreamTuple, now: int) -> None:
        """Admit one arriving tuple into window and index.

        Refused before window or index is touched: a tuple of another
        stream (``ValueError``: the engine's ordering filter reads a state's
        tuples as all of its own stream), an arrival earlier than the last
        (``ValueError``), and whatever the index's insert refuses — a
        missing join attribute (``KeyError``) or a join value outside the
        value contract (:class:`~repro.indexes.base.UnkeyableValueError`,
        naming this stream).
        """
        if item.stream != self.stream:
            raise ValueError(
                f"state {self.stream!r} stores only {self.stream!r} tuples, "
                f"got a tuple of stream {item.stream!r}"
            )
        window = self.window
        window.check_arrival(now)
        try:
            self.index.insert(item)
        except UnkeyableValueError as refused:
            refused.stream = self.stream
            raise
        window.add(item, now)

    def expire(self, now: int) -> int:
        """Drop tuples whose window has passed; returns how many."""
        expired = self.window.expire(now)
        for item in expired:
            self.index.remove(item)
        return len(expired)

    def probe(self, ap: AccessPattern, values: Mapping[str, object]) -> SearchOutcome:
        """Execute one search request, its values given by attribute name.

        Records the request's access pattern with the tuner's assessor —
        this is where assessment statistics come from — once the index has
        accepted the request.
        """
        outcome = self.index.search(ap, values)
        self.tuner.observe(ap)
        return outcome

    def probe_batch(self, ap: AccessPattern, rows: list[tuple]) -> list[SearchOutcome]:
        """Execute a column of same-pattern search requests against the state.

        Each row is a value tuple aligned with ``ap.attributes``.  Equal to
        one :meth:`probe` per row in every modeled quantity: the tuner
        assessor records the column as one run of its pattern
        (pattern-only — the assessor never sees probe values, and nothing
        reads it before the column ends).  The index-level ``search_batch``
        aggregates accountant increments and lets equal rows share one
        outcome object; the engine only observes counter totals between
        probes, so the aggregation is invisible to the cost model.  A
        column the index refuses is not recorded.
        """
        outcomes = self.index.search_batch(ap, rows)
        self.tuner.observe_run(ap, len(rows))
        return outcomes

    def tune(self, context: TuningContext) -> TuneReport | None:
        """Run one tuning round (delegates to the tuner)."""
        return self.tuner.tune(context)

    def degrade_to_scan(self) -> int:
        """Swap the physical index for the full-scan fallback; returns
        the number of live tuples relocated.

        The graceful-degradation escape hatch under memory pressure: the
        index structure's bytes are released (a ``ScanIndex`` keeps only a
        per-tuple reference) and future probes pay full-scan cost instead.
        The relocation is charged as ``moves`` on the shared accountant, so
        the virtual clock sees the rebuild.  Tuning is disabled afterwards
        (there is no structure left to tune) but the assessor keeps
        recording, so a later operator can still see what the state is
        asked for.
        """
        if self.degraded:
            return 0
        live = list(self.window)
        acct = self.index.accountant
        acct.index_bytes = 0  # the old structure is gone wholesale
        acct.moves += len(live)
        fallback = ScanIndex(self.jas, acct, self.cost_params)
        for item in live:
            fallback.insert(item)
        self.index = fallback
        self.tuner = NullTuner(getattr(self.tuner, "assessor", None))
        return len(live)

    def describe(self) -> str:
        """One-line state summary for logs."""
        return f"StateStore({self.stream}: {self.index.describe()})"
