"""AMRI — the paper's contribution: index design, assessment, and tuning.

Public surface:

- access patterns and the search-benefit lattice
  (:class:`JoinAttributeSet`, :class:`AccessPattern`,
  :class:`AccessPatternLattice`);
- the bit-address index (:class:`IndexConfiguration`,
  :class:`BitAddressIndex`);
- the cost model (:class:`WorkloadStatistics`, :func:`estimate_cd`) and
  selector (:class:`IndexSelector`);
- compiled probe plans (:class:`ProbePlan`, :class:`ProbePlanCache`,
  :func:`compile_probe_plan`, :func:`compile_matcher`) — the hot-path
  compilation layer (see docs/performance.md);
- the assessment methods (:class:`SRIA`, :class:`CSRIA`, :class:`DIA`,
  :class:`CDIA`, :func:`make_assessor`);
- the tuners (:class:`AMRITuner`, :class:`HashIndexTuner`,
  :class:`NullTuner`).
"""

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
from repro.core.bit_index import BitAddressIndex, MigrationReport, make_bit_index
from repro.core.cost_model import (
    CostBreakdown,
    WorkloadStatistics,
    cost_breakdown,
    estimate_cd,
    migration_cost,
)
from repro.core.index_config import IndexConfiguration, uniform_configuration
from repro.core.lattice import AccessPatternLattice
from repro.core.probe_plan import (
    Matcher,
    ProbePlan,
    ProbePlanCache,
    compile_matcher,
    compile_probe_plan,
)
from repro.core.selector import (
    CandidatePool,
    IndexSelector,
    candidate_pool,
    select_exhaustive,
    select_greedy,
    select_hash_patterns,
)
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner, TuneReport, TuningContext
from repro.core.value_mapping import (
    EquiDepthValueMapper,
    HashValueMapper,
    occupancy_skew,
)

__all__ = [
    "ASSESSOR_NAMES",
    "AMRITuner",
    "AccessPattern",
    "AccessPatternLattice",
    "BitAddressIndex",
    "CDIA",
    "CSRIA",
    "CandidatePool",
    "CostBreakdown",
    "EquiDepthValueMapper",
    "HashValueMapper",
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
    "ProbePlanCache",
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
    "occupancy_skew",
    "select_exhaustive",
    "select_greedy",
    "select_hash_patterns",
    "uniform_configuration",
]
