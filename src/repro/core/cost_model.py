"""The index-configuration-dependent cost model ``C_D`` (Section IV-A, Eq. 1).

``C_D`` combines the IC-dependent maintenance cost (hashing every arriving
tuple into its bucket) with the IC-dependent search cost (hashing each search
request's attributes, visiting candidate buckets, and comparing stored
tuples):

    C_D = λ_d · N_A · C_h                                    (maintenance)
        + λ_r · Σ_ap F_ap · ( N_A,ap · C_h                   (request hashing)
                            + V(ap) · C_b                    (bucket visits)
                            + (λ_d · W / 2^B*_ap) · C_c )    (tuple comparisons)

Two deliberate refinements over the formula as printed:

1. **Bucket-visit term** ``V(ap) = min(2^(B − B_ap), expected live buckets)``.
   Equation 1 omits it, but Sections III and IV-D's case analysis (worst /
   slightly-better / better / optimal) is entirely about how many buckets a
   wildcard search must visit; without this term the optimiser is indifferent
   to wasting bits on attributes no frequent pattern uses.  Setting
   ``CostParams.c_bucket = 0`` recovers the printed formula exactly.
2. **Domain capping** ``B*_ap = Σ_{a ∈ ap} min(bits_a, domain_bits_a)``.
   Bits beyond an attribute's value entropy cannot further split tuples, so
   they buy no comparison reduction.  (With unbounded domains this reduces to
   the paper's ``B_ap``.)

Both refinements are validated by the paper's own Table II worked example:
with them (or without them — the example is robust to ``c_bucket``), the
optimal 4-bit IC for the full statistics is ``{A:1, B:1, C:2}`` and the
optimal IC for the CSRIA-truncated statistics is ``{B:1, C:3}``, exactly the
configurations the paper names.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.access_pattern import AccessPattern
from repro.core.index_config import IndexConfiguration
from repro.indexes.base import CostParams
from repro.utils.bitops import mask_to_indices
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class WorkloadStatistics:
    """The measurable quantities ``C_D`` depends on (Table I).

    Parameters
    ----------
    lambda_d:
        Tuples arriving at the state per time unit.
    lambda_r:
        Search requests hitting the state per time unit.
    window:
        Window length ``W`` in time units (the state holds ``λ_d · W``
        tuples in steady state).
    frequencies:
        ``ap -> F_ap``; need not sum to exactly 1 (compacted assessments
        return only frequent patterns).
    domain_bits:
        Optional ``attribute name -> value entropy in bits``; bits assigned
        beyond this cap buy nothing.  Attributes absent from the mapping are
        treated as unbounded.
    """

    lambda_d: float
    lambda_r: float
    window: float
    frequencies: Mapping[AccessPattern, float]
    domain_bits: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("lambda_d", self.lambda_d)
        check_non_negative("lambda_r", self.lambda_r)
        check_positive("window", self.window)
        for name in ("lambda_d", "lambda_r", "window"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for ap, f in self.frequencies.items():
            if not (math.isfinite(f) and f >= 0):
                raise ValueError(f"frequency of {ap!r} must be finite and >= 0, got {f}")

    @property
    def stored_tuples(self) -> float:
        """Steady-state tuples in the window, ``λ_d · W``."""
        return self.lambda_d * self.window


@dataclass(frozen=True)
class CostBreakdown:
    """``C_D`` split into its terms (useful for tests and ablations)."""

    maintenance: float
    request_hashing: float
    bucket_visits: float
    tuple_comparisons: float

    @property
    def total(self) -> float:
        return self.maintenance + self.request_hashing + self.bucket_visits + self.tuple_comparisons

    @property
    def search(self) -> float:
        """The search-side cost (everything except maintenance)."""
        return self.request_hashing + self.bucket_visits + self.tuple_comparisons


def effective_pattern_bits(
    config: IndexConfiguration, ap: AccessPattern, domain_bits: Mapping[str, int]
) -> int:
    """``B*_ap``: assigned bits over ``ap``'s attributes, domain-capped."""
    total = 0
    names = config.jas.names
    for i in mask_to_indices(ap.mask):
        width = config.bits[i]
        cap = domain_bits.get(names[i])
        total += width if cap is None else min(width, cap)
    return total


def effective_total_bits(config: IndexConfiguration, domain_bits: Mapping[str, int]) -> int:
    """Domain-capped total bits — bounds how many buckets can be non-empty."""
    total = 0
    for name, width in zip(config.jas.names, config.bits):
        cap = domain_bits.get(name)
        total += width if cap is None else min(width, cap)
    return total


def _live_bucket_cap(config: IndexConfiguration, stats: WorkloadStatistics) -> float:
    """Upper bound on live buckets: stored tuples and domain-capped key space."""
    return min(
        stats.stored_tuples,
        float(2 ** min(effective_total_bits(config, stats.domain_bits), 63)),
    )


def expected_bucket_visits(
    config: IndexConfiguration,
    ap: AccessPattern,
    stats: WorkloadStatistics,
    live_cap: float | None = None,
) -> float:
    """``V(ap)``: bucket ids a search with ``ap`` visits, capped at live buckets.

    A real bit-address search enumerates one bucket id per combination of the
    wildcard bits (``2^(B − B_ap)``), but a sparse implementation never visits
    more buckets than exist; live buckets are bounded both by the stored tuple
    count and by the domain-capped key space.  ``live_cap`` is that bound —
    it does not depend on ``ap``, so callers evaluating one configuration
    against many patterns pass it precomputed.
    """
    wildcard = config.wildcard_bits(ap)
    if live_cap is None:
        live_cap = _live_bucket_cap(config, stats)
    if wildcard >= 63:
        return max(live_cap, 1.0)
    return max(min(float(2**wildcard), live_cap), 1.0)


def expected_tuples_compared(
    config: IndexConfiguration, ap: AccessPattern, stats: WorkloadStatistics
) -> float:
    """``λ_d · W / 2^B*_ap``: stored tuples a search with ``ap`` examines."""
    b_eff = effective_pattern_bits(config, ap, stats.domain_bits)
    if b_eff >= 63:
        return max(stats.stored_tuples / float(2**63), 0.0)
    return stats.stored_tuples / float(2**b_eff)


def cost_breakdown(
    config: IndexConfiguration,
    stats: WorkloadStatistics,
    params: CostParams | None = None,
) -> CostBreakdown:
    """Evaluate ``C_D`` for one configuration, term by term."""
    if params is None:
        params = CostParams()
    n_indexed = len(config.indexed_attributes)
    maintenance = stats.lambda_d * n_indexed * params.c_hash

    request_hashing = 0.0
    bucket_visits = 0.0
    tuple_comparisons = 0.0
    live_cap = _live_bucket_cap(config, stats)
    jas = config.jas
    for ap, f_ap in stats.frequencies.items():
        if f_ap == 0.0:
            continue
        if ap.jas is not jas and ap.jas != jas:
            raise ValueError(f"frequency pattern {ap!r} ranges over a different JAS")
        request_hashing += f_ap * ap.n_attributes * params.c_hash
        bucket_visits += (
            f_ap * expected_bucket_visits(config, ap, stats, live_cap) * params.c_bucket
        )
        tuple_comparisons += f_ap * expected_tuples_compared(config, ap, stats) * params.c_compare
    lam_r = stats.lambda_r
    return CostBreakdown(
        maintenance=maintenance,
        request_hashing=lam_r * request_hashing,
        bucket_visits=lam_r * bucket_visits,
        tuple_comparisons=lam_r * tuple_comparisons,
    )


def estimate_cd(
    config: IndexConfiguration,
    stats: WorkloadStatistics,
    params: CostParams | None = None,
) -> float:
    """The scalar ``C_D`` of Equation 1 (with the documented refinements)."""
    return cost_breakdown(config, stats, params).total


def migration_cost(
    config_from: IndexConfiguration,
    config_to: IndexConfiguration,
    stored_tuples: float,
    params: CostParams | None = None,
) -> float:
    """Cost of relocating a state from one key map to another.

    Each stored tuple is rehashed on the newly indexed attributes and moved
    to its new bucket (Section III's adaptation discussion).  Identical
    configurations cost nothing.
    """
    if config_from == config_to:
        return 0.0
    if params is None:
        params = CostParams()
    n_new_indexed = len(config_to.indexed_attributes)
    per_tuple = n_new_indexed * params.c_hash + params.c_move
    return stored_tuples * per_tuple
