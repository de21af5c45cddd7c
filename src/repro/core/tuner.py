"""On-line index tuning: the loop that makes AMRI *adaptive*.

Each state owns a tuner.  During execution the tuner's assessor records the
access pattern of every probe; every ``assess_interval`` time units the
engine asks the tuner to re-evaluate.  The tuner extracts the frequent
patterns (threshold θ), asks the selector for the ``C_D``-minimising
configuration, and migrates the index if the projected saving over the next
assessment window clears the one-off migration cost.  Statistics are then
reset so the next window reflects the *current* routing regime — the whole
point in an AMR system whose query paths keep moving.

Three tuners:

- :class:`AMRITuner` — the paper's contribution: any assessor +
  the bit-address index.
- :class:`HashIndexTuner` — the adaptive multi-hash baseline of Section V:
  the same assessment drives "conventional index selection" (index the k
  most frequent patterns) over a :class:`~repro.indexes.hash_index.MultiHashIndex`.
- :class:`NullTuner` — tuning disabled (the non-adapting baselines).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.access_pattern import AccessPattern
from repro.core.assessment.base import FrequencyAssessor
from repro.core.bit_index import BitAddressIndex
from repro.core.cost_model import WorkloadStatistics, estimate_cd, migration_cost
from repro.core.selector import IndexSelector, pad_patterns_to_k, select_hash_patterns
from repro.indexes.base import CostParams
from repro.indexes.hash_index import MultiHashIndex
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class TuningContext:
    """Engine-supplied facts the tuner needs to evaluate ``C_D``.

    ``horizon`` is the number of time units the new configuration is
    expected to serve (normally the assessment interval); the migration
    gate amortises the relocation cost over it.
    """

    lambda_d: float
    window: float
    horizon: float
    domain_bits: Mapping[str, int] = field(default_factory=dict)


@dataclass
class TuneReport:
    """What one tuning round decided (and why)."""

    frequencies: dict[AccessPattern, float]
    old_cd: float
    new_cd: float
    migration_cost: float
    migrated: bool
    old_description: str
    new_description: str

    @property
    def projected_saving(self) -> float:
        """Per-time-unit cost reduction the chosen configuration promises."""
        return self.old_cd - self.new_cd


class NullTuner:
    """Tuning disabled: statistics may still be recorded but nothing adapts.

    Serves the static baselines (non-adapting bitmap, static hash indices).
    """

    def __init__(self, assessor: FrequencyAssessor | None = None) -> None:
        self.assessor = assessor

    def observe(self, ap: AccessPattern) -> None:
        if self.assessor is not None:
            self.assessor.record(ap)

    def observe_run(self, ap: AccessPattern, n: int) -> None:
        if self.assessor is not None:
            self.assessor.record_run(ap, n)

    def tune(self, context: TuningContext) -> TuneReport | None:
        return None


class AMRITuner:
    """Assessment-driven tuning of one bit-address index.

    Parameters
    ----------
    index:
        The state's :class:`BitAddressIndex`.
    assessor:
        Any :class:`FrequencyAssessor` (SRIA / CSRIA / DIA / CDIA).
    selector:
        The configuration selector (bound to the state's JAS and bit budget).
    theta:
        Frequency threshold for a pattern to influence selection.
    min_benefit_ratio:
        Migrate only when ``projected_saving * horizon`` exceeds
        ``migration_cost * min_benefit_ratio``.  1.0 = break even.

    Each assessment window starts fresh after a tuning round — the paper's
    model, whose assessment phases have explicit ends ("at the end of
    assessment, the final result is produced").

    An approved migration is one stop-the-world ``index.reconfigure`` (the
    paper's model; its cost is what the gate weighs).
    """

    def __init__(
        self,
        index: BitAddressIndex,
        assessor: FrequencyAssessor,
        selector: IndexSelector,
        *,
        theta: float = 0.1,
        min_benefit_ratio: float = 1.0,
        params: CostParams | None = None,
    ) -> None:
        check_fraction("theta", theta, inclusive_low=False)
        if index.jas != assessor.jas or index.jas != selector.jas:
            raise ValueError("index, assessor, and selector must share one JAS")
        self.index = index
        self.assessor = assessor
        self.selector = selector
        self.theta = theta
        self.min_benefit_ratio = min_benefit_ratio
        self.params = params if params is not None else CostParams()
        self.history: list[TuneReport] = []

    def observe(self, ap: AccessPattern) -> None:
        """Record one probe's access pattern."""
        self.assessor.record(ap)

    def observe_run(self, ap: AccessPattern, n: int) -> None:
        """Record ``n`` consecutive probes sharing one access pattern."""
        self.assessor.record_run(ap, n)

    def tune(self, context: TuningContext) -> TuneReport | None:
        """Run one assessment round; migrate the index if it pays.

        Returns the report, or ``None`` when no requests were observed
        (nothing to assess).  Always resets the assessor afterwards.
        """
        n = self.assessor.n_requests
        if n == 0:
            return None
        horizon = context.horizon
        lambda_r = n / horizon if horizon > 0 else float(n)
        freqs = self.assessor.frequent_patterns(self.theta)
        if not freqs:
            # Below-threshold noise only; keep the current configuration.
            self.assessor.reset()
            return None
        stats = WorkloadStatistics(
            lambda_d=max(context.lambda_d, 1e-9),
            lambda_r=lambda_r,
            window=context.window,
            frequencies=freqs,
            domain_bits=context.domain_bits,
        )
        candidate = self.selector.select(stats)
        current = self.index.config
        old_cd = estimate_cd(current, stats, self.params)
        new_cd = estimate_cd(candidate, stats, self.params)
        mig = migration_cost(current, candidate, self.index.size, self.params)
        migrate = (
            candidate != current
            and (old_cd - new_cd) * context.horizon > mig * self.min_benefit_ratio
        )
        if migrate:
            self.index.reconfigure(candidate)
        report = TuneReport(
            frequencies=freqs,
            old_cd=old_cd,
            new_cd=new_cd,
            migration_cost=mig,
            migrated=migrate,
            old_description=repr(current),
            new_description=repr(candidate if migrate else current),
        )
        self.history.append(report)
        self.assessor.reset()
        return report


class HashIndexTuner:
    """Adaptive multi-hash baseline: retune which patterns have modules.

    Section V's "adaptive hash indices that utilize ... CDIA index tuning and
    conventional index selection (i.e., indices created support the most
    frequent search request access patterns)".  The number of modules ``k``
    is fixed per trial (the paper sweeps 1..7).
    """

    def __init__(
        self,
        index: MultiHashIndex,
        assessor: FrequencyAssessor,
        *,
        k: int,
        theta: float = 0.1,
    ) -> None:
        check_positive("k", k)
        check_fraction("theta", theta, inclusive_low=False)
        if index.jas != assessor.jas:
            raise ValueError("index and assessor must share one JAS")
        self.index = index
        self.assessor = assessor
        self.k = k
        self.theta = theta
        self.history: list[tuple[AccessPattern, ...]] = []

    def observe(self, ap: AccessPattern) -> None:
        """Record one probe's access pattern."""
        self.assessor.record(ap)

    def observe_run(self, ap: AccessPattern, n: int) -> None:
        """Record ``n`` consecutive probes sharing one access pattern."""
        self.assessor.record_run(ap, n)

    def tune(self, context: TuningContext) -> TuneReport | None:
        """Re-select the k most frequent patterns and rebuild modules."""
        if self.assessor.n_requests == 0:
            return None
        freqs = self.assessor.frequent_patterns(self.theta)
        if not freqs:
            freqs = self.assessor.frequencies()
        if not freqs:
            self.assessor.reset()
            return None
        chosen = tuple(
            pad_patterns_to_k(
                self.index.jas,
                select_hash_patterns(freqs, self.k),
                self.k,
                prefer=self.index.patterns,  # keep built modules; avoid rebuilds
            )
        )
        old = self.index.patterns
        changed = set(chosen) != set(old)
        if changed:
            self.index.set_patterns(chosen)
        self.history.append(chosen)
        report = TuneReport(
            frequencies=freqs,
            old_cd=float("nan"),
            new_cd=float("nan"),
            migration_cost=0.0,
            migrated=changed,
            old_description=f"modules={[repr(p) for p in old]}",
            new_description=f"modules={[repr(p) for p in chosen]}",
        )
        self.assessor.reset()
        return report
