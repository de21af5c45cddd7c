"""Shared low-level utilities: bit manipulation, seeded RNG, validation.

These helpers are deliberately free of any stream/index semantics so that the
core and substrate packages can use them without circular imports.
"""

from repro.utils.bitops import (
    bit_count,
    bits_needed,
    iter_submasks,
    iter_supermasks,
    mask_to_indices,
    splitmix64,
)
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "bit_count",
    "bits_needed",
    "iter_submasks",
    "iter_supermasks",
    "mask_to_indices",
    "splitmix64",
    "derive_seed",
    "make_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]
