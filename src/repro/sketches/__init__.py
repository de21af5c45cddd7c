"""Stream-summary (heavy hitter) algorithms.

These are stand-alone implementations of the algorithms the paper's
compacted assessment methods are built on:

- :class:`~repro.sketches.lossy_counting.LossyCounting` — Manku & Motwani's
  ε-approximate frequency counting (VLDB 2002, ref. [12]); CSRIA is this
  algorithm applied to access-pattern statistics.
- :class:`~repro.sketches.hierarchical.HierarchicalHeavyHitters` — Cormode
  et al.'s hierarchical heavy hitters over an arbitrary parent relation
  (VLDB 2003, ref. [13]); CDIA is this algorithm over the search-benefit
  lattice.
"""

from repro.sketches.hierarchical import HHHEntry, HierarchicalHeavyHitters
from repro.sketches.lossy_counting import LossyCounting, LossyCountingEntry

__all__ = [
    "HHHEntry",
    "HierarchicalHeavyHitters",
    "LossyCounting",
    "LossyCountingEntry",
]
