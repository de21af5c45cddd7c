"""Experiment harness: quasi-training, scheme comparisons, figure regeneration."""

from repro.experiments.harness import (
    TrainingResult,
    run_comparison,
    run_scheme,
    train_initial_state,
)
from repro.experiments.parallel import RunOutcome, RunSpec, run_parallel
from repro.experiments.profiling import profile_scheme
from repro.experiments.sweeps import SweepPoint, format_sweep, grid_points, run_sweep
from repro.experiments.reporting import (
    format_component_breakdown,
    format_cost_profile,
    format_summary,
    format_table,
    format_throughput_figure,
    improvement_pct,
)

__all__ = [
    "format_component_breakdown",
    "format_cost_profile",
    "profile_scheme",
    "RunOutcome",
    "RunSpec",
    "SweepPoint",
    "run_parallel",
    "TrainingResult",
    "format_sweep",
    "grid_points",
    "run_sweep",
    "format_summary",
    "format_table",
    "format_throughput_figure",
    "improvement_pct",
    "run_comparison",
    "run_scheme",
    "train_initial_state",
]
