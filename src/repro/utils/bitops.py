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

import numpy as np

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


#: The value types whose stable hash follows ``==`` exactly: equal values
#: hash equally, across the numeric types too (``1 == 1.0 == True``).  A
#: subclass may define its own ``__eq__``, so only these exact types reach
#: the memo below.
EXACT_KEY_TYPES = frozenset({int, float, str, bytes, bool, type(None)})

#: Entries of the value-hash memo: room for a window's live join values —
#: ``sparse_ingest``'s 14 400 — and 64 times the paper's 256-value domain.
HASH_MEMO_SIZE = 1 << 14


def stable_value_hash(value: object) -> int:
    """Deterministic 64-bit hash of an attribute value.

    Supports the value types stream tuples carry (ints, strings, floats,
    bytes, bools, None).  The hash follows ``==`` across the numeric
    types: a bool, and a float that equals an integer (``-0.0`` included),
    hash as that int.  Ints are mixed directly (SplitMix64, inline for an
    exact ``int``); other floats through their IEEE bit pattern, strings
    and bytes through FNV-1a first.
    """
    if type(value) is int:  # the common case: splitmix64 inlined
        x = (value + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)
    if isinstance(value, int):  # bools and int subclasses
        return splitmix64(int(value) & _MASK64)
    if value is None:
        return splitmix64(0x9077)
    if isinstance(value, float):
        if value.is_integer():
            return splitmix64(int(value) & _MASK64)
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


class _HashMemo(dict):
    """:func:`stable_value_hash` memoized in a plain dict keyed by the value
    alone, bounded at :data:`HASH_MEMO_SIZE`: a miss that finds the memo
    full clears it first.  Equal values share an entry, which is right only
    because they share a hash — and only for :data:`EXACT_KEY_TYPES`:
    ``Decimal(1) == 1.0`` would find ``1.0``'s entry where the hash refuses
    it.  So a caller passes an exact-type value only, as
    :func:`memoized_value_hash` does."""

    __slots__ = ()

    def __missing__(self, value: object) -> int:
        h = stable_value_hash(value)
        if len(self) >= HASH_MEMO_SIZE:
            self.clear()
        self[value] = h
        return h


_HASH_MEMO = _HashMemo()
#: The memo's lookup: a hit is one C-level dict read, with no wrapper frame.
_cached_value_hash = _HASH_MEMO.__getitem__

_SPLITMIX_ADD = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def memoize_int_hashes(values: Iterable[object]) -> None:
    """Memoize, in one numpy ``uint64`` pass, the hash of every exact
    ``int`` of ``values`` in ``[0, 2**64)`` that the memo lacks.

    The pass is :func:`stable_value_hash`'s SplitMix64, whose wrapping
    ``uint64`` arithmetic is the scalar code's ``& _MASK64``.  Every other
    value — a bool, a float, a str, a negative or wider int, a list — is
    left to the scalar path and the index's value contract: the type is
    checked before ``v in memo``, so an unhashable value never raises here.
    A batch that would overflow the memo clears it first, and at most
    :data:`HASH_MEMO_SIZE` values of one batch are memoized.
    """
    memo = _HASH_MEMO
    fresh = list(
        dict.fromkeys(
            v for v in values if type(v) is int and 0 <= v <= _MASK64 and v not in memo
        )
    )[:HASH_MEMO_SIZE]
    if not fresh:
        return
    if len(memo) + len(fresh) > HASH_MEMO_SIZE:
        memo.clear()
    x = np.array(fresh, dtype=np.uint64)
    x += _SPLITMIX_ADD
    x ^= x >> np.uint64(30)
    x *= _SPLITMIX_MUL1
    x ^= x >> np.uint64(27)
    x *= _SPLITMIX_MUL2
    x ^= x >> np.uint64(31)
    memo.update(zip(fresh, x.tolist()))


def memoized_value_hash(value: object) -> int:
    """:func:`stable_value_hash` through the memo for an exact-type value,
    directly for any other — so whether a value is refused never depends
    on what the memo holds."""
    if type(value) in EXACT_KEY_TYPES:
        return _cached_value_hash(value)
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
