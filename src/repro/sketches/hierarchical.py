"""Hierarchical heavy hitters over an arbitrary generalization hierarchy.

Implements the Cormode et al. algorithm family (paper ref. [13]): a lossy-
counting-style summary where, instead of *deleting* infrequent entries at
segment boundaries, each infrequent **leaf** entry is *combined* into one of
its parents (a more general item).  The paper's CDIA (Section IV-D2) is this
algorithm instantiated over the search-benefit lattice of access patterns,
with two parent-selection strategies: ``random`` and ``highest_count``.

The hierarchy is supplied structurally:

- ``parents(item)`` returns the items exactly one generalization step above
  ``item`` (empty for the root / most-general item);
- ``level(item)`` returns the item's depth (root = 0, increasing towards the
  most specific items);
- ``is_ancestor(a, b)`` returns True when ``a`` strictly generalizes ``b``
  (used to decide which tracked entries are leaves).

Counts here are, as in lossy counting, within ``epsilon * n`` of the true
*rolled-up* frequency ``f*`` (own frequency plus the frequency combined in
from evicted descendants).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction


@dataclass
class HHHEntry:
    """A tracked hierarchy node: observed count plus maximum undercount."""

    count: int
    delta: int

    @property
    def upper_bound(self) -> int:
        """Largest possible rolled-up count of the node."""
        return self.count + self.delta


class HierarchicalHeavyHitters:
    """HHH summary with combine-on-evict compaction.

    Parameters
    ----------
    epsilon:
        Error parameter; segment width is ``ceil(1/epsilon)``.
    parents:
        ``item -> sequence of parent items`` (one generalization step up).
    level:
        ``item -> int`` depth in the hierarchy (root = 0).
    is_ancestor:
        ``(a, b) -> bool``; True when ``a`` strictly generalizes ``b``.
    combine:
        Parent-selection strategy: ``"random"`` or ``"highest_count"``.
    seed:
        RNG seed for the random strategy.
    """

    COMBINE_STRATEGIES = ("random", "highest_count")

    def __init__(
        self,
        epsilon: float,
        *,
        parents: Callable[[Hashable], Sequence[Hashable]],
        level: Callable[[Hashable], int],
        is_ancestor: Callable[[Hashable, Hashable], bool],
        combine: str = "highest_count",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_fraction("epsilon", epsilon, inclusive_low=False)
        if combine not in self.COMBINE_STRATEGIES:
            raise ValueError(f"combine must be one of {self.COMBINE_STRATEGIES}, got {combine!r}")
        self.epsilon = epsilon
        self.segment_width = math.ceil(1.0 / epsilon)
        self.combine = combine
        self._parents = parents
        self._level = level
        self._is_ancestor = is_ancestor
        self._rng = make_rng(seed)
        self._entries: dict[Hashable, HHHEntry] = {}
        self._n = 0
        # _tracked_leaves memo: (tracked keys in dict order, their leaves).
        self._leaves_memo: tuple[list[Hashable], list[Hashable]] = ([], [])
        # A lower bound on ``count + delta`` over the tracked leaves: exact
        # after a sweep, lowered by each new entry.  Counts only grow and
        # only a sweep removes entries (the one way a node becomes a leaf),
        # so a boundary whose segment id is below it has nothing to roll up.
        self._floor: float = math.inf

    @property
    def n(self) -> int:
        """Number of items offered so far."""
        return self._n

    @property
    def current_segment_id(self) -> int:
        """1-based id of the segment currently being filled."""
        if self._n == 0:
            return 1
        return (self._n + self.segment_width - 1) // self.segment_width

    def offer(self, item: Hashable) -> None:
        """Add one occurrence of ``item``; compress at segment boundaries."""
        self._n += 1
        entry = self._entries.get(item)
        if entry is not None:
            entry.count += 1
        else:
            delta = self.current_segment_id - 1
            self._entries[item] = HHHEntry(count=1, delta=delta)
            self._floor = min(self._floor, 1 + delta)
        if self._n % self.segment_width == 0:
            self.compress()

    def offer_run(self, item: Hashable, n: int) -> None:
        """``n`` consecutive :meth:`offer` calls of ``item``, one segment at a time.

        Identical to the loop in every observable — counts, deltas, entry
        dict order, ``n`` and RNG draws: within a segment only ``item``'s
        count moves, so the run advances to each boundary in one step and
        compresses there.  A compression may roll ``item`` itself up; the
        next segment then re-creates it, as the next ``offer`` would.
        """
        width = self.segment_width
        entries = self._entries
        while n > 0:
            step = min(n, width - self._n % width)
            entry = entries.get(item)
            if entry is None:
                # delta of the segment the run's next offer lands in
                entry = entries[item] = HHHEntry(count=0, delta=self._n // width)
                self._floor = min(self._floor, step + entry.delta)
            entry.count += step
            self._n += step
            n -= step
            if self._n % width == 0:
                self.compress()

    def extend(self, items: Iterable[Hashable]) -> None:
        """Offer each item of ``items`` once, in order."""
        for item in items:
            self.offer(item)

    # ------------------------------------------------------------------ #
    # compaction

    def _tracked_leaves(self) -> list[Hashable]:
        """Tracked entries with no tracked strict descendant.

        A function of the tracked keys (and their order) alone, and
        ``compress`` asks every segment while the key list rarely changes,
        so the last answer is kept and returned as a copy.
        """
        items = list(self._entries)
        memo_items, memo_leaves = self._leaves_memo
        if items == memo_items:
            return list(memo_leaves)
        by_level: dict[int, list[Hashable]] = {}
        for item in items:
            by_level.setdefault(self._level(item), []).append(item)
        levels = sorted(by_level)
        leaves = []
        for item in items:
            lvl = self._level(item)
            has_descendant = any(
                self._is_ancestor(item, other)
                for deeper in levels
                if deeper > lvl
                for other in by_level[deeper]
            )
            if not has_descendant:
                leaves.append(item)
        self._leaves_memo = (items, leaves)
        return list(leaves)

    def _pick_parent(self, item: Hashable) -> Hashable | None:
        """Choose the parent to combine ``item`` into, per the strategy."""
        candidates = list(self._parents(item))
        if not candidates:
            return None
        if self.combine == "random":
            return candidates[int(self._rng.integers(len(candidates)))]
        # highest_count: the tracked parent with the largest count so far;
        # untracked parents count as 0.  Ties resolve to the first candidate
        # in parent order, keeping runs deterministic.
        best = candidates[0]
        best_count = self._entries[best].count if best in self._entries else 0
        for cand in candidates[1:]:
            c = self._entries[cand].count if cand in self._entries else 0
            if c > best_count:
                best, best_count = cand, c
        return best

    def _roll_up(self, item: Hashable, entry: HHHEntry) -> None:
        """Combine ``entry`` into a parent of ``item`` and delete ``item``."""
        parent = self._pick_parent(item)
        del self._entries[item]
        if parent is None:
            return  # root: nothing above; statistics genuinely dropped
        existing = self._entries.get(parent)
        if existing is not None:
            existing.count += entry.count
        else:
            self._entries[parent] = HHHEntry(count=entry.count, delta=self.current_segment_id - 1)

    def compress(self) -> int:
        """Roll infrequent leaves into parents; returns number combined.

        A leaf is combined when ``count + delta <= current_segment_id``
        (the lossy-counting eviction rule, but *merging* instead of
        deleting).  Rolling up can expose new leaves, so the sweep repeats
        until it makes no progress.  No sweep runs while every leaf is known
        to clear the segment id.
        """
        combined = 0
        s_id = self.current_segment_id
        if self._floor > s_id:
            return 0
        entries = self._entries
        while True:
            bounds = {
                leaf: entries[leaf].count + entries[leaf].delta for leaf in self._tracked_leaves()
            }
            doomed = [item for item, bound in bounds.items() if bound <= s_id]
            if not doomed:
                self._floor = min(bounds.values(), default=math.inf)
                return combined
            # Deepest first so the roll-up cascades bottom-up within a sweep.
            doomed.sort(key=self._level, reverse=True)
            for item in doomed:
                entry = self._entries.get(item)
                if entry is None:
                    continue  # already merged away this sweep
                if entry.count + entry.delta > s_id:
                    continue  # gained mass from a deeper roll-up
                self._roll_up(item, entry)
                combined += 1

    # ------------------------------------------------------------------ #
    # queries

    def estimate(self, item: Hashable) -> int:
        """Observed rolled-up count of ``item`` (0 if not tracked)."""
        entry = self._entries.get(item)
        return entry.count if entry is not None else 0

    def frequent_items(self, theta: float) -> dict[Hashable, float]:
        """Hierarchical heavy hitters at threshold ``theta``.

        Processes tracked entries bottom-up.  An entry whose frequency
        (including upward roll-ups performed during this computation) reaches
        ``theta - epsilon`` is reported; otherwise its count is combined into
        a parent, per the configured strategy, and considered at the parent's
        turn.  The summary itself is not mutated.
        """
        check_fraction("theta", theta)
        if self._n == 0:
            return {}
        working: dict[Hashable, int] = {item: e.count for item, e in self._entries.items()}
        cut = (theta - self.epsilon) * self._n
        result: dict[Hashable, float] = {}
        while working:
            # Deepest remaining entry first.
            item = max(working, key=lambda it: (self._level(it), self._count_key(it)))
            count = working.pop(item)
            if count >= cut:
                result[item] = count / self._n
                continue
            parent = self._pick_parent_from(item, working)
            if parent is not None:
                working[parent] = working.get(parent, 0) + count
        return result

    def _count_key(self, item: Hashable) -> int:
        """Secondary deterministic ordering key for bottom-up processing."""
        entry = self._entries.get(item)
        return entry.count if entry is not None else 0

    def _pick_parent_from(self, item: Hashable, working: dict[Hashable, int]) -> Hashable | None:
        """Parent choice against a scratch count table (final-results pass)."""
        candidates = list(self._parents(item))
        if not candidates:
            return None
        if self.combine == "random":
            return candidates[int(self._rng.integers(len(candidates)))]
        best = candidates[0]
        best_count = working.get(best, 0)
        for cand in candidates[1:]:
            c = working.get(cand, 0)
            if c > best_count:
                best, best_count = cand, c
        return best

    def entries(self) -> dict[Hashable, HHHEntry]:
        """Snapshot of tracked entries (copies)."""
        return {item: HHHEntry(e.count, e.delta) for item, e in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._entries
