"""The unified storage layer: one :class:`StateStore` per stream.

A :class:`StateStore` is one stream's window + index + accountant + tuner
wiring (the operator the paper calls a STeM).  A tuner-approved migration
is a stop-the-world ``reconfigure()`` of its one index structure.
"""

from repro.storage.store import StateStore, Tuner

__all__ = [
    "StateStore",
    "Tuner",
]
