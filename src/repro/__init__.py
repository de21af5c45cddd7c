"""AMRI — a full reproduction of *Index Tuning for Adaptive Multi-Route Data
Stream Systems* (Works, Rundensteiner, Agu; IPPS 2010).

Subpackages:

- :mod:`repro.core` — the paper's contribution: the bit-address index, the
  SRIA/CSRIA/DIA/CDIA assessment methods, the ``C_D`` cost model, the
  configuration selector, and the on-line tuner.
- :mod:`repro.sketches` — heavy-hitter substrate (lossy counting for
  CSRIA, hierarchical heavy hitters for CDIA).
- :mod:`repro.indexes` — baseline index schemes (full scan, multi-hash
  access modules, non-adapting bitmap) behind one interface.
- :mod:`repro.engine` — the AMR/Eddy stream-processing engine the paper's
  evaluation runs inside (one FIFO-drained staged kernel).
- :mod:`repro.workloads` — drifting synthetic streams and the Section V
  scenario.
- :mod:`repro.storage` — the per-stream state store and its budgeted
  migration lifecycle.
- :mod:`repro.experiments` — harnesses regenerating every figure and table,
  and the ``python -m repro`` subcommands.

Quickstart::

    from repro.core import JoinAttributeSet, make_bit_index, AccessPattern

    jas = JoinAttributeSet(["priority", "package", "location"])
    index = make_bit_index(jas, {"priority": 5, "package": 2, "location": 3})
    index.insert({"priority": 2012, "package": 17, "location": 47})
    ap = AccessPattern.from_attributes(jas, ["priority", "location"])
    hits = index.search(ap, {"priority": 2012, "location": 47})
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
