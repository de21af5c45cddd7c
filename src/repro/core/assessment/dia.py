"""DIA — Dependent Index Assessment (Section IV-D1).

Statistics organised as the search-benefit lattice: each observed pattern is
a lattice node holding its request count, physically stored in the very same
SRIA table keyed by ``BR(ap)`` (the paper: "physically each DIA node is
stored in a SRIA table").  Without compaction DIA's statistics — and
therefore its tuning decisions — are *identical* to SRIA's; the lattice
structure only pays off once CDIA starts combining nodes.  Our experiments
assert that equality, as the paper's Figure 6 discussion does.
"""

from __future__ import annotations

from repro.core.assessment.sria import SRIA


class DIA(SRIA):
    """The paper's DIA: SRIA's table, its entries read as lattice nodes
    (``AccessPattern``'s relations); the same statistics as SRIA."""
