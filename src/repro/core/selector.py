"""Index-configuration selection: pick the key map minimising ``C_D``.

Given access-pattern frequencies (from an assessment method) and a total bit
budget, the selector searches the space of per-attribute bit allocations for
the configuration with the lowest estimated cost: :func:`select_exhaustive`
enumerates every allocation (each attribute 0..cap bits, total ≤ budget)
and takes the ``C_D`` minimum.  The paper's scenario (3 attributes, 64 bits,
8-bit domains) has 729 allocations; 18-bit domains, capped at
``DEFAULT_MAX_BITS_PER_ATTRIBUTE``, have 4 913.

Also here: :func:`select_hash_patterns`, the "conventional index selection"
the paper applies to the multi-hash baseline — index the ``k`` most frequent
access patterns; and :func:`candidate_pool` / :class:`CandidatePool`, the
enumeration held as columns so Equation 1 is evaluated for every candidate
in one vector pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache

import numpy as np

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.cost_model import WorkloadStatistics
from repro.core.index_config import IndexConfiguration
from repro.indexes.base import CostParams
from repro.utils.bitops import mask_to_indices
from repro.utils.validation import check_non_negative, check_positive

# Bits beyond this per attribute never pay off at stream scale and explode the
# exhaustive search space; callers can raise it explicitly if needed.
DEFAULT_MAX_BITS_PER_ATTRIBUTE = 16


def _attribute_caps(
    jas: JoinAttributeSet,
    budget: int,
    domain_bits: Mapping[str, int],
    max_bits_per_attribute: int,
) -> list[int]:
    caps = []
    for name in jas.names:
        cap = min(budget, max_bits_per_attribute)
        dom = domain_bits.get(name)
        if dom is not None:
            cap = min(cap, dom)
        caps.append(cap)
    return caps


def enumerate_allocations(caps: Sequence[int], budget: int) -> Iterator[tuple[int, ...]]:
    """All per-attribute bit vectors with each ``b_i <= caps[i]``, sum ≤ budget."""
    n = len(caps)
    current = [0] * n

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(current)
            return
        for b in range(min(caps[i], remaining) + 1):
            current[i] = b
            yield from rec(i + 1, remaining - b)
        current[i] = 0

    yield from rec(0, budget)


class CandidatePool:
    """The exhaustive candidate set of one (JAS, caps, budget), as columns.

    Row ``i`` is one candidate: ``bits[i]`` is its bit vector,
    ``total_bits[i]`` and ``n_indexed[i]`` its ``B`` and ``N_A``.  Rows are
    sorted by ``(total_bits, bits)`` — the selectors' tie-break order — so
    the *first* minimum of a cost column is the selected configuration.
    A row becomes an :class:`IndexConfiguration` only when asked for
    (:meth:`config`, or iteration), once: a selector returns one row per
    round, and the same object every time it returns that row.

    The powers of two Equation 1 needs (``2**wildcard_bits`` per pattern,
    ``2**B*_ap`` and the live key space per domain-cap tuple and pattern)
    are derived on first use and kept.  They are pure functions of
    immutable inputs, so nothing ever invalidates them; a pool holds at
    most ``2**|JAS|`` columns per distinct domain-cap tuple, plus as many
    uncapped ones.

    :meth:`cd_column` performs the IEEE operations of
    :func:`~repro.core.cost_model.cost_breakdown` in the same order, so
    each entry is bit-equal to the scalar model, which remains the
    definition of Equation 1.
    """

    def __init__(self, jas: JoinAttributeSet, caps: tuple[int, ...], budget: int) -> None:
        allocations = sorted(
            enumerate_allocations(caps, budget), key=lambda bits: (sum(bits), bits)
        )
        self.jas = jas
        self.bits = np.array(allocations, dtype=np.int64)
        self.total_bits = self.bits.sum(axis=1)
        self.n_indexed = np.count_nonzero(self.bits, axis=1)
        self._configs: dict[int, IndexConfiguration] = {}
        self._pow2: dict[tuple[tuple[int | None, ...], int], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[IndexConfiguration]:
        return map(self.config, range(len(self)))

    def config(self, row: int) -> IndexConfiguration:
        """The configuration of row ``row``, built on first request."""
        config = self._configs.get(row)
        if config is None:
            config = self._configs[row] = IndexConfiguration(self.jas, self.bits[row].tolist())
        return config

    def _pow2_bits(self, domain_caps: tuple[int | None, ...], mask: int) -> np.ndarray:
        """``2**min(Σ_{a ∈ mask} min(bits_a, cap_a), 63)`` per candidate."""
        column = self._pow2.get((domain_caps, mask))
        if column is None:
            unbounded = np.iinfo(np.int64).max
            limits = [unbounded if cap is None else cap for cap in domain_caps]
            capped = np.minimum(self.bits, np.array(limits, dtype=np.int64))
            total = capped[:, list(mask_to_indices(mask))].sum(axis=1)
            column = self._pow2[domain_caps, mask] = np.ldexp(1.0, np.minimum(total, 63))
        return column

    def cd_column(
        self, stats: WorkloadStatistics, params: CostParams | None = None
    ) -> np.ndarray:
        """``C_D`` (Equation 1) of every candidate, bit-equal to ``estimate_cd``."""
        if params is None:
            params = CostParams()
        jas = self.jas
        full_mask = jas.full_mask
        uncapped = (None,) * len(jas)
        domain_caps = tuple(map(stats.domain_bits.get, jas.names))
        stored = stats.stored_tuples
        live_cap = np.minimum(stored, self._pow2_bits(domain_caps, full_mask))
        request_hashing = 0.0
        bucket_visits = 0.0
        tuple_comparisons = 0.0
        for ap, f_ap in stats.frequencies.items():
            if f_ap == 0.0:
                continue
            if ap.jas is not jas and ap.jas != jas:
                raise ValueError(f"frequency pattern {ap!r} ranges over a different JAS")
            # At 63 or more wildcard bits the scalar model takes the live cap
            # alone; the cap never exceeds 2**63, so clamping the power there
            # yields the same minimum.
            wildcard_pow = self._pow2_bits(uncapped, full_mask & ~ap.mask)
            visits = np.maximum(np.minimum(wildcard_pow, live_cap), 1.0)
            compared = stored / self._pow2_bits(domain_caps, ap.mask)
            request_hashing += f_ap * ap.n_attributes * params.c_hash
            bucket_visits = bucket_visits + f_ap * visits * params.c_bucket
            tuple_comparisons = tuple_comparisons + f_ap * compared * params.c_compare
        lam_r = stats.lambda_r
        return (
            stats.lambda_d * self.n_indexed * params.c_hash
            + lam_r * request_hashing
            + lam_r * bucket_visits
            + lam_r * tuple_comparisons
        )


@lru_cache(maxsize=256)
def candidate_pool(jas: JoinAttributeSet, caps: tuple[int, ...], budget: int) -> CandidatePool:
    """The exhaustive candidate set, built once per (JAS, caps, budget).

    Configurations are immutable, so successive tuning rounds — which
    search the identical space every time — share one
    :class:`CandidatePool` and the columns it has derived.
    """
    return CandidatePool(jas, caps, budget)


def select_exhaustive(
    stats: WorkloadStatistics,
    jas: JoinAttributeSet,
    budget: int,
    params: CostParams | None = None,
    *,
    max_bits_per_attribute: int = DEFAULT_MAX_BITS_PER_ATTRIBUTE,
) -> IndexConfiguration:
    """The allocation minimising ``C_D``, by full enumeration.

    Ties break toward fewer total bits, then the lexicographically smallest
    bit vector, keeping selections deterministic: the pool's rows are in
    that order, and ``argmin`` returns the first minimum.
    """
    check_non_negative("budget", budget)
    caps = _attribute_caps(jas, budget, stats.domain_bits, max_bits_per_attribute)
    pool = candidate_pool(jas, tuple(caps), budget)
    return pool.config(int(np.argmin(pool.cd_column(stats, params))))


class IndexSelector:
    """Reusable selector bound to a JAS, budget, and cost parameters."""

    def __init__(
        self,
        jas: JoinAttributeSet,
        budget: int,
        params: CostParams | None = None,
        *,
        max_bits_per_attribute: int = DEFAULT_MAX_BITS_PER_ATTRIBUTE,
    ) -> None:
        check_non_negative("budget", budget)
        self.jas = jas
        self.budget = budget
        self.params = params if params is not None else CostParams()
        self.max_bits_per_attribute = max_bits_per_attribute

    def select(self, stats: WorkloadStatistics) -> IndexConfiguration:
        """The best configuration for the given statistics."""
        return select_exhaustive(
            stats,
            self.jas,
            self.budget,
            self.params,
            max_bits_per_attribute=self.max_bits_per_attribute,
        )


def select_hash_patterns(
    frequencies: Mapping[AccessPattern, float], k: int
) -> list[AccessPattern]:
    """Conventional index selection for the multi-hash baseline (Section V).

    The ``k`` most frequent non-full-scan access patterns, by descending
    frequency (ties toward the lower mask for determinism).
    """
    check_positive("k", k)
    ranked = sorted(
        (ap for ap in frequencies if not ap.is_full_scan),
        key=lambda ap: (-frequencies[ap], ap.mask),
    )
    return ranked[:k]


def pad_patterns_to_k(
    jas: JoinAttributeSet,
    chosen: list[AccessPattern],
    k: int,
    *,
    prefer: Iterable[AccessPattern] = (),
) -> list[AccessPattern]:
    """Fill a module list up to exactly ``k`` patterns (or all possible).

    The paper's hash trials run with a *fixed* number of hash indices;
    when fewer than ``k`` patterns clear the frequency threshold the
    remaining slots are filled deterministically — first from ``prefer``
    (e.g. currently built modules, avoiding rebuilds), then unused patterns
    by ascending attribute count and mask.
    """
    check_positive("k", k)
    out = list(chosen[:k])
    have = {p.mask for p in out}
    for p in prefer:
        if len(out) >= k:
            return out
        if p.mask not in have and not p.is_full_scan:
            out.append(p)
            have.add(p.mask)
    candidates = sorted(
        (AccessPattern.from_mask(jas, m) for m in range(1, jas.full_mask + 1)),
        key=lambda p: (p.n_attributes, p.mask),
    )
    for p in candidates:
        if len(out) >= k:
            break
        if p.mask not in have:
            out.append(p)
            have.add(p.mask)
    return out
