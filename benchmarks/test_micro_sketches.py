"""Micro-benchmarks: the heavy-hitter sketch substrate.

Wall-clock throughput of offer() on the two summaries the assessors use, plus compression and
final-results costs — the per-request assessment overhead the paper's
Section I-B frets about ("the overhead of assessing indices clearly must
not detract from producing rapid results").
"""

import numpy as np
import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA, CSRIA
from repro.sketches.hierarchical import HierarchicalHeavyHitters
from repro.sketches.lossy_counting import LossyCounting
from repro.utils.bitops import bit_count, mask_to_indices

N_ITEMS = 20_000
rng = np.random.default_rng(3)
ZIPF_STREAM = [int(v) for v in rng.choice(64, size=N_ITEMS, p=(lambda w: w / w.sum())(
    np.arange(1, 65, dtype=float) ** -1.2
))]


def test_lossy_counting_offer(benchmark):
    def run():
        lc = LossyCounting(0.01)
        lc.extend(ZIPF_STREAM)
        return lc

    lc = benchmark(run)
    assert lc.n == N_ITEMS


def test_hierarchical_offer(benchmark):
    masks = [int(v) % 15 for v in ZIPF_STREAM]

    def run():
        h = HierarchicalHeavyHitters(
            0.02,
            parents=lambda m: tuple(m & ~(1 << i) for i in mask_to_indices(m)),
            level=bit_count,
            is_ancestor=lambda a, b: a != b and (a & b) == a,
            seed=0,
        )
        h.extend(masks)
        return h

    h = benchmark(run)
    assert h.n == N_ITEMS


@pytest.mark.parametrize("n_attrs", [3, 5])
def test_assessment_final_results(benchmark, n_attrs):
    """frequent_patterns() — the per-tuning-round read cost."""
    jas = JoinAttributeSet([f"a{i}" for i in range(n_attrs)])
    patterns = [AccessPattern.from_mask(jas, 1 + (m % jas.full_mask)) for m in ZIPF_STREAM[:5000]]
    cdia = CDIA(jas, 0.02, combine="highest_count", seed=0)
    csria = CSRIA(jas, 0.02)
    for ap in patterns:
        cdia.record(ap)
        csria.record(ap)

    out = benchmark(lambda: (cdia.frequent_patterns(0.1), csria.frequent_patterns(0.1)))
    assert out[0] and out[1]
