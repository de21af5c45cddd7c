"""Non-adapting bitmap (bit-address) index — the Figure 7 tuning baseline.

Structurally identical to :class:`~repro.core.bit_index.BitAddressIndex`
(it *is* one), but frozen: :meth:`reconfigure` raises.  Section V's "Index
Tuning" experiment starts this index and AMRI from the same optimal
configuration; when selectivity drift moves the access-pattern mix away from
that configuration, the static index falls behind and eventually dies from
search-request backlog, while AMRI retunes.
"""

from __future__ import annotations

from repro.core.bit_index import BitAddressIndex, MigrationReport
from repro.core.index_config import IndexConfiguration


class StaticBitmapIndex(BitAddressIndex):
    """A bit-address index whose key map can never change."""

    def reconfigure(self, new_config: IndexConfiguration) -> MigrationReport:
        raise RuntimeError(
            "StaticBitmapIndex is non-adapting: reconfigure() is disabled "
            "(this is the Figure 7 baseline; use BitAddressIndex for AMRI)"
        )
