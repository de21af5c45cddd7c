"""AMRI — the paper's contribution: index design, assessment, and tuning.

Public surface:

- access patterns and their search-benefit relation, Fig. 4's lattice
  (:class:`JoinAttributeSet`, :class:`AccessPattern`);
- the bit-address index (:class:`IndexConfiguration`,
  :class:`BitAddressIndex`);
- the cost model (:class:`WorkloadStatistics`, :func:`estimate_cd`) and
  selector (:class:`IndexSelector`);
- compiled probe plans (:class:`ProbePlan`, :func:`compile_probe_plan`,
  :func:`compile_matcher`) — the hot-path
  compilation layer (see docs/performance.md);
- the assessment methods (:class:`SRIA`, :class:`CSRIA`, :class:`DIA`,
  :class:`CDIA`, :func:`make_assessor`);
- the tuners (:class:`AMRITuner`, :class:`HashIndexTuner`,
  :class:`NullTuner`).
"""

import importlib

from repro.core.access_pattern import AccessPattern, JoinAttributeSet, all_access_patterns
from repro.core.assessment import (
    ASSESSOR_NAMES,
    CDIA,
    CSRIA,
    DIA,
    SRIA,
    FrequencyAssessor,
    make_assessor,
)
from repro.core.index_config import IndexConfiguration, uniform_configuration
from repro.core.probe_plan import (
    Matcher,
    ProbePlan,
    compile_matcher,
    compile_probe_plan,
)

#: The modules that build on :mod:`repro.indexes.base`, which itself imports
#: :mod:`repro.core.access_pattern` and so runs this file first, with the
#: names taken from each: a module is imported on first use of one of its
#: names, so the import graph has no cycle whichever package loads first.
_LAZY_MODULES = {
    "bit_index": ("BitAddressIndex", "MigrationReport", "make_bit_index"),
    "cost_model": (
        "CostBreakdown",
        "WorkloadStatistics",
        "cost_breakdown",
        "estimate_cd",
        "migration_cost",
    ),
    "selector": (
        "CandidatePool",
        "IndexSelector",
        "candidate_pool",
        "select_exhaustive",
        "select_hash_patterns",
    ),
    "tuner": ("AMRITuner", "HashIndexTuner", "NullTuner", "TuneReport", "TuningContext"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "ASSESSOR_NAMES",
    "AMRITuner",
    "AccessPattern",
    "BitAddressIndex",
    "CDIA",
    "CSRIA",
    "CandidatePool",
    "CostBreakdown",
    "DIA",
    "FrequencyAssessor",
    "HashIndexTuner",
    "IndexConfiguration",
    "IndexSelector",
    "JoinAttributeSet",
    "Matcher",
    "MigrationReport",
    "NullTuner",
    "ProbePlan",
    "SRIA",
    "TuneReport",
    "TuningContext",
    "WorkloadStatistics",
    "all_access_patterns",
    "candidate_pool",
    "compile_matcher",
    "compile_probe_plan",
    "cost_breakdown",
    "estimate_cd",
    "make_assessor",
    "make_bit_index",
    "migration_cost",
    "select_exhaustive",
    "select_hash_patterns",
    "uniform_configuration",
]
