"""Tests for the hierarchical heavy-hitter engine (the CDIA substrate)."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA
from repro.sketches.hierarchical import HHHEntry, HierarchicalHeavyHitters
from repro.utils.bitops import bit_count, mask_to_indices


def mask_parents(m: int):
    """Subset-lattice parents: remove one set bit."""
    return tuple(m & ~(1 << i) for i in mask_to_indices(m))


def mask_level(m: int) -> int:
    return bit_count(m)


def mask_is_ancestor(a: int, b: int) -> bool:
    return a != b and (a & b) == a


def make_hhh(eps=0.05, combine="highest_count", seed=0):
    return HierarchicalHeavyHitters(
        eps,
        parents=mask_parents,
        level=mask_level,
        is_ancestor=mask_is_ancestor,
        combine=combine,
        seed=seed,
    )


class TestBasics:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            make_hhh(eps=0.0)

    def test_rejects_bad_combine(self):
        with pytest.raises(ValueError):
            make_hhh(combine="median")

    def test_counts_before_compression(self):
        h = make_hhh(eps=0.01)
        h.extend([0b111, 0b111, 0b011])
        assert h.estimate(0b111) == 2
        assert h.estimate(0b011) == 1

    def test_entries_are_copies(self):
        h = make_hhh(eps=0.01)
        h.offer(0b1)
        h.entries()[0b1].count = 99
        assert h.estimate(0b1) == 1


class TestCompression:
    def test_infrequent_leaf_combines_into_parent(self):
        h = make_hhh(eps=0.1)  # segment width 10
        # One rare specific item among common general items.
        h.extend([0b011] * 1 + [0b001] * 9)
        # At the boundary 0b011 (count 1, delta 0) rolls into a parent
        # (0b001 or 0b010); with highest_count it must pick 0b001 (count 9).
        assert 0b011 not in h
        assert h.estimate(0b001) == 10

    def test_mass_is_never_deleted_below_root(self):
        """Unlike lossy counting, evicted mass moves up, not out."""
        h = make_hhh(eps=0.05)
        stream = [0b111] * 3 + [0b110] * 3 + [0b100] * 94
        h.extend(stream)
        total_tracked = sum(e.count for e in h.entries().values())
        # Nothing can vanish except via roll-up past the root (mask 0 has no
        # parents and is itself trackable), so totals are conserved.
        assert total_tracked == len(stream)

    def test_root_eviction_drops_mass(self):
        h = make_hhh(eps=0.5)  # width 2, aggressive
        h.extend([0b000, 0b000])
        # Root-level entries below threshold have no parent; compress() may
        # genuinely drop them.
        h.extend([0b001] * 10)
        assert h.n == 12

    def test_frequent_specific_item_survives(self):
        h = make_hhh(eps=0.02)
        stream = [0b111] * 60 + [m for m in (1, 2, 4, 3, 5, 6) for _ in range(5)] * 2
        h.extend(stream)
        assert h.estimate(0b111) >= 50


def sketch_state(h):
    """Everything a later offer, compress or query can depend on."""
    return list(h._entries.items()), h.n, h._rng.bit_generator.state


class TestOfferRun:
    """``offer_run(x, n)`` is ``n`` consecutive ``offer(x)`` calls."""

    @settings(max_examples=200, deadline=None)
    @given(
        # widths 2, 5 and 20; runs of 0..45 cross none, one or many boundaries
        eps=st.sampled_from([0.5, 0.2, 0.05]),
        combine=st.sampled_from(HierarchicalHeavyHitters.COMBINE_STRATEGIES),
        seed=st.integers(0, 3),
        runs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 45)), max_size=25),
    )
    def test_equals_the_offer_loop(self, eps, combine, seed, runs):
        by_run = make_hhh(eps, combine, seed)
        by_offer = make_hhh(eps, combine, seed)
        for item, n in runs:
            by_run.offer_run(item, n)
            for _ in range(n):
                by_offer.offer(item)
            # entries with their deltas, dict order, n, and RNG draws
            assert sketch_state(by_run) == sketch_state(by_offer)
        assert by_run.frequent_items(0.1) == by_offer.frequent_items(0.1)

    def test_run_whose_own_entry_is_rolled_up_midway(self):
        by_run, by_offer = make_hhh(eps=0.2), make_hhh(eps=0.2)  # width 5
        for h in (by_run, by_offer):
            h.extend([0b001] * 4)
        # The run's first offer closes segment 1 with count 1: the entry is
        # rolled up (0b110 -> 0b100 -> 0b000) and the rest of the run
        # re-creates it in segment 2, crossing one more boundary.
        by_run.offer_run(0b110, 7)
        by_offer.extend([0b110] * 7)
        assert sketch_state(by_run) == sketch_state(by_offer)
        assert by_run._entries[0b110] == HHHEntry(count=6, delta=1)
        assert by_run._entries[0b000] == HHHEntry(count=1, delta=0)
        assert list(by_run._entries) == [0b001, 0b000, 0b110]

    def test_tracked_leaves_memo_returns_copies(self):
        h = make_hhh(eps=0.01)
        h.extend([0b011, 0b001, 0b100])
        first = h._tracked_leaves()
        assert first == [0b011, 0b100]
        first.clear()
        assert h._tracked_leaves() == [0b011, 0b100]
        h.offer(0b101)  # the key list changed: the memo must not answer
        assert h._tracked_leaves() == [0b011, 0b101]


class TestFinalResults:
    def test_rollup_surfaces_shared_parent(self):
        """Several infrequent children jointly clear theta at the parent."""
        h = make_hhh(eps=0.001, combine="highest_count")
        # 0b101 and 0b111 each 4%, 0b100 never seen directly; everything
        # else is 92% of 0b010.
        stream = [0b101] * 40 + [0b111] * 40 + [0b010] * 920
        h.extend(stream)
        result = h.frequent_items(0.07)
        # 0b101 and 0b111 are each below 7%; their mass should surface at a
        # shared ancestor on the roll-up path.
        assert 0b010 in result
        surfaced = [m for m in result if m not in (0b010,)]
        assert sum(result[m] for m in surfaced) >= 0.07

    def test_summary_not_mutated_by_query(self):
        h = make_hhh(eps=0.05)
        h.extend([0b011] * 10 + [0b001] * 10)
        before = {m: e.count for m, e in h.entries().items()}
        h.frequent_items(0.3)
        after = {m: e.count for m, e in h.entries().items()}
        assert before == after

    def test_empty(self):
        assert make_hhh().frequent_items(0.1) == {}

    def test_random_combine_deterministic_per_seed(self):
        stream = [0b111] * 5 + [0b011] * 5 + [0b001] * 90
        a = make_hhh(eps=0.05, combine="random", seed=3)
        b = make_hhh(eps=0.05, combine="random", seed=3)
        a.extend(stream)
        b.extend(stream)
        assert {m: (e.count, e.delta) for m, e in a.entries().items()} == {
            m: (e.count, e.delta) for m, e in b.entries().items()
        }


class TestGuarantees:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=30, max_size=1500),
        st.sampled_from([0.02, 0.05, 0.1]),
        st.sampled_from([0.15, 0.25]),
    )
    def test_rolled_up_heavy_hitters_found(self, stream, eps, theta):
        """Any item whose *own* frequency clears theta must be reported,
        possibly via an ancestor that absorbed it."""
        h = make_hhh(eps=eps, combine="highest_count")
        h.extend(stream)
        result = h.frequent_items(theta)
        true = Counter(stream)
        n = len(stream)
        for item, count in true.items():
            if count / n >= theta:
                covered = item in result or any(
                    mask_is_ancestor(r, item) for r in result
                )
                assert covered, f"{item:#b} (f={count/n:.2f}) not covered by {result}"

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=10, max_size=800))
    def test_tracked_counts_never_exceed_rollup(self, stream):
        """A node's tracked count never exceeds its true rolled-up count."""
        h = make_hhh(eps=0.05, combine="highest_count")
        h.extend(stream)
        true = Counter(stream)
        for item, entry in h.entries().items():
            rollup = sum(c for m, c in true.items() if m == item or mask_is_ancestor(item, m))
            assert entry.count <= rollup


class TestGenericHierarchy:
    """The engine must work over any hierarchy, not just the subset lattice —
    here, dotted name prefixes (the classic HHH example: IP prefixes)."""

    @staticmethod
    def name_parents(name: str):
        if "." not in name:
            return ()
        return (name.rsplit(".", 1)[0],)

    @staticmethod
    def name_level(name: str) -> int:
        return name.count(".") + 1

    @staticmethod
    def name_is_ancestor(a: str, b: str) -> bool:
        return a != b and b.startswith(a + ".")

    def make(self, eps=0.05, combine="highest_count"):
        return HierarchicalHeavyHitters(
            eps,
            parents=self.name_parents,
            level=self.name_level,
            is_ancestor=self.name_is_ancestor,
            combine=combine,
            seed=0,
        )

    def test_prefix_rollup(self):
        h = self.make(eps=0.1)
        # Ten distinct leaves under "net.a": individually rare, jointly heavy.
        stream = [f"net.a.h{i}" for i in range(10)] * 1 + ["net.b.h0"] * 90
        h.extend(stream)
        result = h.frequent_items(0.09)
        covered = any(r == "net.a" or r == "net" for r in result)
        assert covered, f"rolled-up prefix missing from {result}"

    def test_single_parent_chain_climbs_then_drops_at_root(self):
        h = self.make(eps=0.5)  # segment width 2: aggressive compaction
        h.extend(["x.y.z", "x.y.z"])
        # The x.y.z mass rolls x.y.z -> x.y -> x as segments pass; at the
        # parentless root it is legitimately dropped (as lossy counting
        # would), never silently stranded mid-chain.
        h.extend(["q"] * 20)
        assert not any(k.startswith("x") for k in h.entries())
        assert h.n == 22
        assert h.estimate("q") == 20


class SweepsEveryBoundary(HierarchicalHeavyHitters):
    """The reference: its leaf bound reads below every segment id, so each
    boundary sweeps, as every one did before the bound."""

    _floor = property(lambda self: -math.inf, lambda self, value: None)


def count_sweeps(h):
    """Wrap ``h._tracked_leaves`` (asked once per sweep pass) with a tally."""
    calls = [0]
    leaves = h._tracked_leaves

    def counted():
        calls[0] += 1
        return leaves()

    h._tracked_leaves = counted
    return calls


#: One step of a sketch's life: offer, offer_run, extend or compress.
SKETCH_STEPS = st.one_of(
    st.tuples(st.just("offer"), st.integers(0, 15)),
    st.tuples(st.just("offer_run"), st.tuples(st.integers(0, 15), st.integers(0, 45))),
    st.tuples(st.just("extend"), st.lists(st.integers(0, 15), max_size=12)),
    st.tuples(st.just("compress"), st.none()),
)


class TestBoundedSweep:
    """A boundary sweep skipped by the leaf bound changes nothing."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        eps=st.sampled_from([0.5, 0.2, 0.05]),
        combine=st.sampled_from(HierarchicalHeavyHitters.COMBINE_STRATEGIES),
        seed=st.integers(0, 3),
        steps=st.lists(SKETCH_STEPS, max_size=30),
    )
    def test_equals_the_sketch_that_sweeps_every_boundary(self, eps, combine, seed, steps):
        bounded = make_hhh(eps, combine, seed)
        reference = SweepsEveryBoundary(
            eps,
            parents=mask_parents,
            level=mask_level,
            is_ancestor=mask_is_ancestor,
            combine=combine,
            seed=seed,
        )
        sweeps = count_sweeps(bounded), count_sweeps(reference)
        for method, arg in steps:
            for h in (bounded, reference):
                if method == "offer_run":
                    h.offer_run(*arg)
                elif method == "compress":
                    h.compress()
                else:
                    getattr(h, method)(arg)
            # entries with their deltas, dict order, n, and RNG draws
            assert sketch_state(bounded) == sketch_state(reference)
        assert bounded.frequent_items(0.1) == reference.frequent_items(0.1)
        assert sweeps[0][0] <= sweeps[1][0]

    def test_a_boundary_with_nothing_to_roll_up_does_not_sweep(self):
        bounded, reference = make_hhh(eps=0.1), SweepsEveryBoundary(
            0.1, parents=mask_parents, level=mask_level, is_ancestor=mask_is_ancestor
        )
        sweeps = count_sweeps(bounded), count_sweeps(reference)
        for h in (bounded, reference):
            h.extend([0b011, 0b001] * 50)  # two heavy items, ten boundaries
        assert sketch_state(bounded) == sketch_state(reference)
        assert sweeps[0][0] < sweeps[1][0], sweeps


class PatternKeyedCDIA(CDIA):
    """The reference CDIA: its sketch keyed by ``AccessPattern`` objects and
    their lattice methods, sweeping every boundary."""

    def _make_sketch(self):
        return SweepsEveryBoundary(
            self.epsilon,
            parents=AccessPattern.parents,
            level=AccessPattern.level,
            is_ancestor=AccessPattern.is_proper_generalization_of,
            combine=self.combine,
            seed=self._seed,
        )

    def _record(self, ap):
        self._sketch.offer(ap)

    def _record_run(self, ap, n):
        self._sketch.offer_run(ap, n)

    def frequent_patterns(self, theta):
        return dict(self._sketch.frequent_items(theta))

    def entries(self):
        return self._sketch.entries()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    combine=st.sampled_from(HierarchicalHeavyHitters.COMBINE_STRATEGIES),
    eps=st.sampled_from([0.25, 0.05]),
    runs=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 30)), max_size=25),
)
def test_cdia_answers_as_a_pattern_keyed_sketch(combine, eps, runs):
    jas = JoinAttributeSet(["A", "B", "C", "D"])
    cdia = CDIA(jas, eps, combine=combine, seed=5)
    reference = PatternKeyedCDIA(jas, eps, combine=combine, seed=5)
    for mask, n in runs:
        ap = AccessPattern.from_mask(jas, mask)
        for assessor in (cdia, reference):
            if n == 1:
                assessor.record(ap)
            else:
                assessor.record_run(ap, n)
        assert list(cdia.entries().items()) == list(reference.entries().items())
    assert list(cdia.frequencies().items()) == list(reference.frequencies().items())
    for theta in (0.05, 0.2, 0.5):
        assert list(cdia.frequent_patterns(theta).items()) == list(
            reference.frequent_patterns(theta).items()
        )
    assert cdia._sketch._rng.bit_generator.state == reference._sketch._rng.bit_generator.state
