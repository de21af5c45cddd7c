"""State-index schemes: the common interface plus the paper's baselines.

- :class:`~repro.indexes.base.StateIndex` — the interface all schemes share,
  with :class:`~repro.indexes.base.Accountant` cost/memory accounting and
  the one value contract (:class:`~repro.indexes.base.UnkeyableValueError`).
- :class:`~repro.indexes.scan_index.ScanIndex` — unindexed full-scan state
  (test oracle and benchmark floor).
- :class:`~repro.indexes.hash_index.MultiHashIndex` — Raman-style access
  modules, the state-of-the-art AMR indexing baseline.
- :class:`~repro.indexes.static_bitmap.StaticBitmapIndex` — a frozen
  bit-address index, the non-adapting tuning baseline.

The AMRI index itself lives with the paper's contribution in
:mod:`repro.core.bit_index`.
"""

from repro.indexes.base import (
    Accountant,
    CostParams,
    SearchOutcome,
    StateIndex,
    UnkeyableValueError,
)
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex


def __getattr__(name: str):
    # StaticBitmapIndex subclasses the core BitAddressIndex, and core itself
    # builds on repro.indexes.base — import it lazily to keep the package
    # import graph acyclic.
    if name == "StaticBitmapIndex":
        from repro.indexes.static_bitmap import StaticBitmapIndex

        return StaticBitmapIndex
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Accountant",
    "CostParams",
    "InvertedListIndex",
    "MultiHashIndex",
    "ScanIndex",
    "SearchOutcome",
    "StateIndex",
    "StaticBitmapIndex",
    "UnkeyableValueError",
]
