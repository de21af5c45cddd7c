"""The unified storage layer: stores and the migration lifecycle.

Mirrors the staged kernel's decomposition on the storage side:

- :class:`StateStore` — one stream's window + index + accountant + tuner
  wiring (the operator the paper calls a STeM);
- :class:`IndexLifecycle` / :class:`MigrationPlanner` — budgeted
  incremental migration: tuner-approved reconfigurations drain
  ``migration_budget`` tuples per tick through a dual-structure phase
  instead of rebuilding stop-the-world (``None`` keeps the legacy
  single-tick path bit-identically).
"""

from repro.storage.migration import (
    MIGRATION_DONE,
    MIGRATION_START,
    MIGRATION_STEP,
    IndexLifecycle,
    MigrationPlan,
    MigrationPlanner,
    MigrationStepReport,
    plan_steps,
)
from repro.storage.store import StateStore, Tuner, merge_outcomes

__all__ = [
    "IndexLifecycle",
    "MIGRATION_DONE",
    "MIGRATION_START",
    "MIGRATION_STEP",
    "MigrationPlan",
    "MigrationPlanner",
    "MigrationStepReport",
    "StateStore",
    "Tuner",
    "merge_outcomes",
    "plan_steps",
]
