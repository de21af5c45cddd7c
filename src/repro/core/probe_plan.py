"""Compiled probe plans — hoisting per-probe work out of the hot path.

Much of a bit-address probe depends only on the ``(IndexConfiguration,
AccessPattern)`` pair: which JAS positions the probe fixes (at what widths,
and where their values sit in a probe row), how many wildcard bits remain,
the ``enumerated``-buckets cap, how the fragments assemble into a bucket
key when no wildcard bit remains.  A
:class:`ProbePlan` precomputes all of it once; a bit-address index keeps a
plain dict of plans keyed by the pattern's ``BR(ap)`` mask (an ``int``, so
the hot lookup is one dict get) and replaces it whenever its key map changes
(construction and ``reconfigure()``).

Three compilation entry points, all memoized process-wide so a fresh index
or a reconfigured one reuses prior compilations:

- :func:`compile_probe_plan` — the full plan for a bit-address probe;
- :func:`compile_key_plan` — the insert-side bucket-key recipe of one
  configuration;
- :func:`compile_matcher` — just the attribute tuple + specialised
  equality filter, for backends without a key map (hash modules, scans,
  inverted lists).

Everything here is *derived* state: a plan never holds index contents, so
caching cannot change results — only how fast they are produced.  A probe
is a *row*: a value tuple aligned with the pattern's ``attributes``.  The
specialised ``select`` filters preserve the exact comparison order (and
operand order) of the generic ``all(item[a] == v ...)`` they stand for,
which the golden-equivalence suite depends on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache
from operator import and_

from repro.core.access_pattern import AccessPattern
from repro.core.index_config import IndexConfiguration
from repro.utils.bitops import _cached_value_hash, mask_to_indices

#: A stable value hash has 64 bits; a wider fragment mask selects them all.
_HASH_BITS = (1 << 64) - 1

#: Wildcard widths at or above this never cap the enumeration: a Python
#: container cannot hold ``2**63`` live buckets, so ``min(2**wb, live)``
#: is always ``live`` and the shift need not be materialised.
_UNCAPPED_WILDCARD_BITS = 63

RowSelector = Callable[[Iterable[Iterable[Mapping[str, object]]], tuple], list]


def _compile_row_selector(attributes: tuple[str, ...]) -> RowSelector:
    """A list-building equality filter over groups of items (the candidate
    buckets of a probe) against one value row aligned with ``attributes``,
    specialised to the attribute count.

    Semantically identical to filtering the concatenated groups with
    ``all(item[a] == v for a, v in zip(attributes, row))`` — same item
    order, same attribute order, same operand order, same short-circuiting
    — but with the row unpacked once per search instead of once per stored
    tuple, and the walk over the groups inside the one comprehension.
    """
    n = len(attributes)
    if n == 0:
        def select(groups, row):  # full scan: everything matches
            return [item for group in groups for item in group]
    elif n == 1:
        (a,) = attributes

        def select(groups, row):
            (va,) = row
            return [item for group in groups for item in group if item[a] == va]
    elif n == 2:
        a, b = attributes

        def select(groups, row):
            va, vb = row
            return [
                item
                for group in groups
                for item in group
                if item[a] == va and item[b] == vb
            ]
    elif n == 3:
        a, b, c = attributes

        def select(groups, row):
            va, vb, vc = row
            return [
                item
                for group in groups
                for item in group
                if item[a] == va and item[b] == vb and item[c] == vc
            ]
    else:

        def select(groups, row):
            return [
                item
                for group in groups
                for item in group
                if all(item[a] == v for a, v in zip(attributes, row))
            ]

    return select


class Matcher:
    """The pattern-only slice of a plan: attribute names + equality filter.

    Enough for index backends with no key map (scan, hash modules,
    inverted lists) to skip the per-probe ``ap.attributes`` property walk
    and the per-item generic matcher.
    """

    __slots__ = ("mask", "attributes", "n_attributes", "is_full_scan", "select")

    def __init__(self, ap: AccessPattern) -> None:
        self.mask = ap.mask
        self.attributes = ap.attributes
        self.n_attributes = ap.n_attributes
        self.is_full_scan = ap.is_full_scan
        self.select = _compile_row_selector(self.attributes)


#: ``(row, slot) -> (bucket key, value row)``.
RowHasher = Callable[[tuple, int], tuple[tuple[int, ...], tuple]]


def _compile_row_hasher(masks: tuple[int, ...]) -> RowHasher:
    """``(row, slot) -> (bucket key, value row)`` over a row of JAS values
    (a fragment is the memoized stable value hash masked to the attribute's
    width), specialised to the attribute count like the row selectors
    above.  The value row is what a bucket keeps: the values, then
    ``slot``.  Every attribute is hashed, bits or none; the row is within
    the index's value contract, so every value may reach the memo."""
    hash_ = _cached_value_hash
    n = len(masks)
    if n == 1:
        (ma,) = masks

        def hash_row(row, slot):
            (va,) = row
            return (hash_(va) & ma,), (va, slot)
    elif n == 2:
        ma, mb = masks

        def hash_row(row, slot):
            va, vb = row
            return (hash_(va) & ma, hash_(vb) & mb), (va, vb, slot)
    elif n == 3:
        ma, mb, mc = masks

        def hash_row(row, slot):
            va, vb, vc = row
            return (hash_(va) & ma, hash_(vb) & mb, hash_(vc) & mc), (va, vb, vc, slot)
    else:

        def hash_row(row, slot):
            return tuple(map(and_, map(hash_, row), masks)), (*row, slot)

    return hash_row


class KeyPlan:
    """The insert-side recipe of one configuration: bucket-key assembly.

    Precomputes the per-position fragment masks — a fragment is
    ``hash(value) & mask`` (mask 0, so fragment 0, for a position without
    bits) — and ``hash_row``, which hashes and keys a row of JAS values and
    returns its value row in one call.
    """

    __slots__ = ("masks", "hash_row")

    def __init__(self, config: IndexConfiguration) -> None:
        self.masks = tuple(((1 << w) - 1) & _HASH_BITS for w in config.bits)
        self.hash_row = _compile_row_hasher(self.masks)


class ProbePlan:
    """Everything about one ``(configuration, pattern)`` probe that does not
    depend on index contents or probe values."""

    __slots__ = (
        "mask",
        "attributes",
        "n_attributes",
        "positions",
        "fixed",
        "fixed_bits",
        "row_masks",
        "point_slots",
        "wildcard_bits",
        "enumeration_cap",
    )

    def __init__(self, config: IndexConfiguration, ap: AccessPattern) -> None:
        if ap.jas != config.jas:
            raise ValueError(f"pattern {ap!r} ranges over a different JAS than this IC")
        self.mask = ap.mask
        self.attributes = ap.attributes
        self.n_attributes = ap.n_attributes
        #: (JAS position, attribute name, bit width) per probed attribute
        #: that actually carries bits — the search's fixed fragments.
        bits = config.bits
        names = config.jas.names
        probed = mask_to_indices(ap.mask)
        #: JAS position of each entry of a probe row.
        self.positions = probed
        self.fixed = tuple((i, names[i], bits[i]) for i in probed if bits[i] > 0)
        #: Bits the fixed fragments pin: a state of ``n`` tuples spread evenly
        #: leaves ``n >> fixed_bits`` in the buckets a probe has to examine.
        self.fixed_bits = sum(w for _i, _name, w in self.fixed)
        #: Per ``fixed`` entry, where its value sits in a probe row (rows are
        #: aligned with ``attributes``) and its fragment bit mask: a fragment
        #: is ``hash(value) & mask``.
        self.row_masks = tuple(
            (probed.index(i), (1 << w) - 1) for i, _name, w in self.fixed
        )
        self.wildcard_bits = config.wildcard_bits(ap)
        #: With no wildcard bit left the probe fixes every indexed attribute,
        #: so its fragments *are* a bucket key: per JAS position, the index
        #: of that position's entry in ``fixed`` — or ``len(fixed)``, the
        #: slot of a constant 0, for a position that carries no bits.
        #: ``None`` for a probe that leaves wildcard bits.
        self.point_slots = None
        if self.wildcard_bits == 0:
            slot = {pos: n for n, (pos, _name, _w) in enumerate(self.fixed)}
            self.point_slots = tuple(
                slot.get(i, len(self.fixed)) for i in range(len(bits))
            )
        #: ``2**wildcard_bits`` when that can bound the live-bucket count,
        #: else ``None`` (the enumeration is always the live count).  By
        #: definition ``enumerated = min(2**wb, live)``; the search loop
        #: only needs the cap, never the full shift.
        self.enumeration_cap = (
            1 << self.wildcard_bits
            if self.wildcard_bits < _UNCAPPED_WILDCARD_BITS
            else None
        )

    def enumerated(self, live: int) -> int:
        """``min(2**wildcard_bits, live)`` without materialising the shift."""
        cap = self.enumeration_cap
        return live if cap is None or cap >= live else cap

    def __repr__(self) -> str:
        return (
            f"ProbePlan(mask={self.mask:#b}, fixed={len(self.fixed)}, "
            f"wildcard_bits={self.wildcard_bits})"
        )


@lru_cache(maxsize=1024)
def compile_probe_plan(config: IndexConfiguration, ap: AccessPattern) -> ProbePlan:
    """The memoized plan for one ``(configuration, pattern)`` pair."""
    return ProbePlan(config, ap)


@lru_cache(maxsize=512)
def compile_key_plan(config: IndexConfiguration) -> KeyPlan:
    """The memoized insert-side key recipe for one configuration."""
    return KeyPlan(config)


@lru_cache(maxsize=2048)
def compile_matcher(ap: AccessPattern) -> Matcher:
    """The memoized pattern-only matcher (no configuration required)."""
    return Matcher(ap)
