"""Experiment harness: quasi-training, scheme comparisons, figure regeneration."""

from repro.experiments.harness import TrainingResult, train_initial_state
from repro.experiments.parallel import RunOutcome, RunSpec, execute_spec, run_parallel
from repro.experiments.reporting import (
    format_component_breakdown,
    format_cost_profile,
    format_summary,
    format_table,
    format_throughput_figure,
    improvement_pct,
)

__all__ = [
    "execute_spec",
    "format_component_breakdown",
    "format_cost_profile",
    "RunOutcome",
    "RunSpec",
    "run_parallel",
    "TrainingResult",
    "format_summary",
    "format_table",
    "format_throughput_figure",
    "improvement_pct",
    "train_initial_state",
]
