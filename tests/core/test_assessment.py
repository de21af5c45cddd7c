"""Tests for the four assessment methods (SRIA, CSRIA, DIA, CDIA)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import (
    ASSESSOR_NAMES,
    CDIA,
    CSRIA,
    DIA,
    SRIA,
    make_assessor,
)
from repro.core.assessment.sria import SRIATable


def feed(assessor, freqs, n, seed=0):
    """Feed ~n requests drawn exactly per the frequency table (shuffled)."""
    requests = []
    for ap, f in freqs.items():
        requests.extend([ap] * round(f * n))
    random.Random(seed).shuffle(requests)
    for ap in requests:
        assessor.record(ap)
    return requests


class TestSRIATable:
    def test_increment_and_count(self):
        t = SRIATable()
        t.increment(3)
        t.increment(3, by=2)
        assert t.count(3) == 3
        assert t.count(5) == 0

    def test_masks_and_items(self):
        t = SRIATable()
        t.increment(1)
        t.increment(4)
        assert set(t.masks()) == {1, 4}
        assert dict(t.items()) == {1: 1, 4: 1}

    def test_clear(self):
        t = SRIATable()
        t.increment(1)
        t.clear()
        assert len(t) == 0 and 1 not in t


class TestSRIA:
    def test_exact_frequencies(self, jas3, ap3):
        sria = SRIA(jas3)
        feed(sria, {ap3("A"): 0.25, ap3("B", "C"): 0.75}, 400)
        freqs = sria.frequencies()
        assert freqs[ap3("A")] == pytest.approx(0.25)
        assert freqs[ap3("B", "C")] == pytest.approx(0.75)

    def test_frequent_patterns_threshold(self, jas3, ap3):
        sria = SRIA(jas3)
        feed(sria, {ap3("A"): 0.05, ap3("B"): 0.95}, 1000)
        assert set(sria.frequent_patterns(0.10)) == {ap3("B")}
        assert set(sria.frequent_patterns(0.01)) == {ap3("A"), ap3("B")}

    def test_empty(self, jas3):
        sria = SRIA(jas3)
        assert sria.frequencies() == {}
        assert sria.frequent_patterns(0.1) == {}
        assert sria.entry_count == 0

    def test_reset(self, jas3, ap3):
        sria = SRIA(jas3)
        sria.record(ap3("A"))
        sria.reset()
        assert sria.n_requests == 0 and sria.entry_count == 0

    def test_rejects_foreign_pattern(self, jas3):
        sria = SRIA(jas3)
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["X"]), ["X"])
        with pytest.raises(ValueError):
            sria.record(foreign)

    def test_entry_count_tracks_distinct(self, jas3, ap3):
        sria = SRIA(jas3)
        feed(sria, {ap3("A"): 0.5, ap3("B"): 0.3, ap3("C"): 0.2}, 100)
        assert sria.entry_count == 3


class TestCSRIA:
    def test_deletes_infrequent_patterns(self, jas3, ap3, table2_frequencies):
        """The Table II behaviour: 4% patterns vanish at theta=5%, eps=0.1%."""
        csria = CSRIA(jas3, epsilon=0.001)
        feed(csria, table2_frequencies, 10_000)
        result = csria.frequent_patterns(0.05)
        assert ap3("A") not in result
        assert ap3("A", "B") not in result
        for ap, f in table2_frequencies.items():
            if f >= 0.05:
                assert ap in result

    def test_no_false_negatives(self, jas3, ap3):
        csria = CSRIA(jas3, epsilon=0.01)
        freqs = {ap3("A"): 0.5, ap3("B"): 0.3, ap3("A", "C"): 0.15, ap3("C"): 0.05}
        feed(csria, freqs, 2000)
        result = csria.frequent_patterns(0.1)
        assert ap3("A") in result and ap3("B") in result and ap3("A", "C") in result

    def test_memory_bounded_under_noise(self, jas3):
        """Exploration noise cannot grow the table past the lossy bound."""
        csria = CSRIA(jas3, epsilon=0.05)
        rng = random.Random(1)
        for _ in range(5000):
            csria.record(AccessPattern.from_mask(jas3, rng.randrange(8)))
        assert csria.entry_count <= 8  # trivially bounded by pattern count
        # and compaction is actually happening:
        assert csria.current_segment_id > 1

    def test_max_error_exposed(self, jas3, ap3):
        csria = CSRIA(jas3, epsilon=0.1)
        for _ in range(25):
            csria.record(ap3("A"))
        csria.record(ap3("B"))
        assert csria.max_error(ap3("B")) == csria.current_segment_id - 1
        assert csria.max_error(ap3("A")) == 0

    def test_reset(self, jas3, ap3):
        csria = CSRIA(jas3, epsilon=0.1)
        csria.record(ap3("A"))
        csria.reset()
        assert csria.n_requests == 0 and csria.entry_count == 0


class TestDIA:
    def test_statistics_identical_to_sria(self, jas3, table2_frequencies):
        """The paper: DIA and SRIA share the same table and reduce nothing,
        so their statistics are byte-identical."""
        sria, dia = SRIA(jas3), DIA(jas3)
        reqs = feed(sria, table2_frequencies, 5000, seed=3)
        for ap in reqs:
            dia.record(ap)
        assert sria.frequencies() == dia.frequencies()
        assert sria.frequent_patterns(0.1) == dia.frequent_patterns(0.1)
        assert sria.entry_count == dia.entry_count


class TestCDIA:
    def test_combines_instead_of_deleting(self, jas3, ap3, table2_frequencies):
        """Where CSRIA deletes <A,*,*> and <A,B,*>, CDIA folds their mass
        into surviving generalizations."""
        cdia = CDIA(jas3, epsilon=0.001, combine="highest_count", seed=0)
        feed(cdia, table2_frequencies, 10_000)
        result = cdia.frequent_patterns(0.05)
        reported_mass = sum(result.values())
        # CSRIA retains 92% of the mass (it deletes the two 4% patterns);
        # CDIA combines <A,B,*> upward and so must retain strictly more.
        # (<A,*,*>'s only generalization is the full scan, so its 4% can
        # still legitimately fall off the top of the lattice.)
        assert reported_mass >= 0.95
        csria = CSRIA(jas3, epsilon=0.001)
        feed(csria, table2_frequencies, 10_000)
        assert reported_mass > sum(csria.frequent_patterns(0.05).values())

    def test_no_false_negatives(self, jas3, ap3):
        cdia = CDIA(jas3, epsilon=0.01)
        freqs = {ap3("A"): 0.4, ap3("B"): 0.4, ap3("A", "B", "C"): 0.2}
        feed(cdia, freqs, 3000)
        result = cdia.frequent_patterns(0.15)
        for ap in freqs:
            assert ap in result or any(r.provides_search_benefit_to(ap) for r in result)

    def test_random_vs_highest_strategies_both_valid(self, jas3, table2_frequencies):
        for combine in ("random", "highest_count"):
            cdia = CDIA(jas3, epsilon=0.001, combine=combine, seed=5)
            feed(cdia, table2_frequencies, 10_000)
            result = cdia.frequent_patterns(0.05)
            assert sum(result.values()) >= 0.9, combine

    def test_seeded_reproducibility(self, jas3, table2_frequencies):
        results = []
        for _ in range(2):
            cdia = CDIA(jas3, epsilon=0.005, combine="random", seed=11)
            feed(cdia, table2_frequencies, 4000, seed=2)
            results.append(cdia.frequent_patterns(0.05))
        assert results[0] == results[1]

    def test_entry_count_bounded_under_noise(self, jas3):
        cdia = CDIA(jas3, epsilon=0.05)
        rng = random.Random(1)
        for _ in range(5000):
            cdia.record(AccessPattern.from_mask(jas3, rng.randrange(8)))
        assert cdia.entry_count <= 8

    def test_reset(self, jas3, ap3):
        cdia = CDIA(jas3, epsilon=0.1)
        cdia.record(ap3("A"))
        cdia.reset()
        assert cdia.n_requests == 0 and cdia.entry_count == 0


class TestMakeAssessor:
    @pytest.mark.parametrize("name", ASSESSOR_NAMES)
    def test_builds_each(self, name, jas3):
        assessor = make_assessor(name, jas3)
        assert assessor.jas == jas3

    def test_types(self, jas3):
        assert isinstance(make_assessor("sria", jas3), SRIA)
        assert isinstance(make_assessor("csria", jas3), CSRIA)
        assert isinstance(make_assessor("dia", jas3), DIA)
        assert isinstance(make_assessor("cdia-random", jas3), CDIA)
        cdia = make_assessor("cdia-highest", jas3)
        assert isinstance(cdia, CDIA) and cdia.combine == "highest_count"

    def test_unknown_rejected(self, jas3):
        with pytest.raises(ValueError):
            make_assessor("magic", jas3)


@settings(max_examples=20, deadline=None)
@given(
    masks=st.lists(st.integers(0, 7), min_size=50, max_size=1000),
    epsilon=st.sampled_from([0.02, 0.05]),
    theta=st.sampled_from([0.15, 0.3]),
)
def test_property_all_compact_assessors_cover_heavy_patterns(masks, epsilon, theta):
    """For any request stream, every pattern with true frequency >= theta is
    reported by CSRIA directly and by CDIA directly-or-via-generalization."""
    jas = JoinAttributeSet(["A", "B", "C"])
    requests = [AccessPattern.from_mask(jas, m) for m in masks]
    csria, cdia = CSRIA(jas, epsilon), CDIA(jas, epsilon, combine="highest_count")
    for ap in requests:
        csria.record(ap)
        cdia.record(ap)
    true = Counter(requests)
    n = len(requests)
    cs = csria.frequent_patterns(theta)
    cd = cdia.frequent_patterns(theta)
    for ap, count in true.items():
        if count / n >= theta:
            assert ap in cs
            assert ap in cd or any(r.provides_search_benefit_to(ap) for r in cd)


def assessor_state(assessor):
    """Every statistic an assessor holds, in storage order (with deltas and
    the RNG position for the compacting methods)."""
    state = [assessor.n_requests, assessor.entry_count, list(assessor.frequencies().items())]
    sketch = getattr(assessor, "_sketch", None)
    if sketch is not None:
        state.append(list(sketch.entries().items()))
        if hasattr(sketch, "_rng"):
            state.append(sketch._rng.bit_generator.state)
    return state


@pytest.mark.parametrize("name", ASSESSOR_NAMES)
@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 30)), max_size=20),
    epsilon=st.sampled_from([0.25, 0.1]),
)
def test_property_record_run_equals_the_record_loop(name, runs, epsilon):
    jas = JoinAttributeSet(["A", "B", "C"])
    by_run = make_assessor(name, jas, epsilon=epsilon, seed=3)
    by_record = make_assessor(name, jas, epsilon=epsilon, seed=3)
    for mask, n in runs:
        ap = AccessPattern.from_mask(jas, mask)
        by_run.record_run(ap, n)
        for _ in range(n):
            by_record.record(ap)
        assert assessor_state(by_run) == assessor_state(by_record)
    assert by_run.frequent_patterns(0.2) == by_record.frequent_patterns(0.2)


@pytest.mark.parametrize("name", ASSESSOR_NAMES)
def test_record_run_rejects_foreign_jas_and_ignores_empty_runs(name, jas3, jas4):
    assessor = make_assessor(name, jas3)
    with pytest.raises(ValueError, match="different JAS"):
        assessor.record_run(AccessPattern.from_mask(jas4, 1), 2)
    assessor.record_run(AccessPattern.from_mask(jas3, 1), 0)
    assert assessor.n_requests == 0 and assessor.entry_count == 0
