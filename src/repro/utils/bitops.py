"""Bit-manipulation primitives used by access patterns and bucket mapping.

Access patterns are represented as integer bitmasks over the ordered
join-attribute set of a state (bit ``i`` set means attribute ``i`` is used to
search — the paper's ``BR(ap)`` binary representation, Section IV-C1).  The
bit-address index maps attribute values to per-attribute hash fragments via a
deterministic 64-bit mixer so that runs are reproducible across processes
(Python's builtin ``hash`` is salted per process and unusable here).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from functools import lru_cache

_MASK64 = (1 << 64) - 1


def bit_count(mask: int) -> int:
    """Number of set bits in ``mask`` (popcount)."""
    return mask.bit_count()


def bits_needed(n_values: int) -> int:
    """Minimum number of bits able to distinguish ``n_values`` values.

    ``bits_needed(1) == 0`` — a single-valued domain needs no bits.
    """
    if n_values < 1:
        raise ValueError(f"n_values must be >= 1, got {n_values}")
    return (n_values - 1).bit_length()


def mask_from_indices(indices: Iterable[int]) -> int:
    """Build a bitmask with the given bit positions set."""
    mask = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"bit index must be >= 0, got {i}")
        mask |= 1 << i
    return mask


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """Set-bit positions of ``mask`` in ascending order."""
    if mask < 0:
        raise ValueError(f"mask must be >= 0, got {mask}")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def iter_submasks(mask: int, *, proper: bool = False) -> Iterator[int]:
    """Iterate all submasks of ``mask`` in descending numeric order.

    A submask has set bits only where ``mask`` does.  Includes ``mask`` itself
    and ``0`` unless ``proper`` is true, in which case ``mask`` is skipped
    (``0`` is still produced for non-zero masks).

    Uses the standard ``sub = (sub - 1) & mask`` enumeration, which visits
    each of the ``2**popcount(mask)`` submasks exactly once.
    """
    if mask < 0:
        raise ValueError(f"mask must be >= 0, got {mask}")
    sub = mask
    if proper:
        if mask == 0:
            return
        sub = (sub - 1) & mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_supermasks(mask: int, universe: int, *, proper: bool = False) -> Iterator[int]:
    """Iterate all supermasks of ``mask`` within ``universe``.

    A supermask ``s`` satisfies ``s & mask == mask`` and ``s & ~universe == 0``.
    ``mask`` itself is included unless ``proper`` is true.
    """
    if mask & ~universe:
        raise ValueError(f"mask {mask:#x} not contained in universe {universe:#x}")
    free = universe & ~mask
    for extra in iter_submasks(free):
        if proper and extra == 0:
            continue
        yield mask | extra


def splitmix64(x: int) -> int:
    """Deterministic 64-bit mixing function (SplitMix64 finalizer).

    Maps any integer to a well-scrambled 64-bit value.  Used as the hash
    behind bucket-fragment mapping so index layouts are identical across
    processes and platforms.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stable_value_hash(value: object) -> int:
    """Deterministic 64-bit hash of an attribute value.

    Supports the value types stream tuples carry (ints, strings, floats,
    bytes, bools, None).  Ints are mixed directly; other types go through a
    stable byte encoding first.
    """
    if isinstance(value, bool):
        return splitmix64(0xB001 + int(value))
    if isinstance(value, int):
        return splitmix64(value & _MASK64)
    if value is None:
        return splitmix64(0x9077)
    if isinstance(value, float):
        # Hash the IEEE bit pattern; normalise -0.0 to 0.0 so equal floats
        # always land in the same bucket.
        if value == 0.0:
            value = 0.0
        (bits,) = struct.unpack("<Q", struct.pack("<d", value))
        return splitmix64(bits)
    if isinstance(value, str):
        data = value.encode("utf-8")
    elif isinstance(value, bytes):
        data = value
    else:
        raise TypeError(f"unhashable attribute value type: {type(value).__name__}")
    h = 0xCBF29CE484222325  # FNV-1a 64-bit offset basis
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return splitmix64(h)


@lru_cache(maxsize=65536)
def _cached_value_hash(value_type: type, value: object) -> int:
    """LRU-memoized :func:`stable_value_hash`, keyed by ``(type, value)``.

    The type belongs in the key because equal-and-equal-hash values of
    different types hash *differently* here (``True == 1`` and
    ``1.0 == 1``, but bools mix through a tag and floats through their
    IEEE bit pattern) — a value-only cache would conflate them.  The one
    same-type conflation, ``-0.0`` with ``0.0``, is safe:
    ``stable_value_hash`` normalises them to the same fragment anyway.
    """
    return stable_value_hash(value)


def memoized_value_hash(value: object) -> int:
    """:func:`stable_value_hash` through the process-wide LRU cache.

    Stream workloads draw attribute values from bounded domains, so the
    insert/probe hot paths hit this cache almost always.  Unhashable
    values (which ``stable_value_hash`` rejects with its own ``TypeError``)
    fall through to the uncached function for the canonical error.
    """
    try:
        return _cached_value_hash(type(value), value)
    except TypeError:
        return stable_value_hash(value)


def fragment(value: object, n_bits: int) -> int:
    """Map an attribute value to an ``n_bits``-wide bucket fragment.

    With 0 bits every value maps to fragment 0 (the attribute contributes
    nothing to the bucket id — the "no bits assigned" case of Section III).
    """
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0, got {n_bits}")
    if n_bits == 0:
        return 0
    return memoized_value_hash(value) & ((1 << n_bits) - 1)
