"""``repro profile`` — live per-component cost-unit accounting.

The paper's Table 2 works one request's cost by hand; this subcommand does
the same accounting *live* over a whole run: it attaches a
:class:`~repro.engine.metrics.MetricsRegistry` to one scheme on one
scenario, runs it, and prints the top-K cost-unit series by ``(component,
stream, index_kind, phase)`` — where the virtual clock's units actually
went, which is the instrument every "make a hot path measurably faster"
PR aims with.

The printed TOTAL equals the executor's aggregate virtual-clock total
exactly (the registry replays the meter's accumulation sequence; see
:mod:`repro.engine.metrics`), and the command verifies that invariant on
every invocation — a profile whose rows do not reconcile with the clock
exits non-zero rather than print a lie.

``--metrics`` / ``--trace`` export the snapshot and the flight recorder's
retained spans as JSONL.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine.metrics import MetricsRegistry, RegistrySnapshot
from repro.engine.metrics_export import write_metrics, write_trace
from repro.engine.resources import DegradationPolicy
from repro.engine.stats import RunStats
from repro.engine.tracing import EventLog
from repro.experiments.harness import train_initial_state, trained_start
from repro.experiments.parallel import RunSpec
from repro.experiments.reporting import format_cost_profile, format_table
from repro.workloads.scenarios import SCENARIO_PARAMS, PaperScenario, scenario_params

#: Attribution drift tolerated between the clock and the per-row sums —
#: pure float regrouping error, so parts-per-billion is already generous.
RECONCILE_REL_TOL = 1e-9


def profile_scheme(
    scenario_name: str = "paper",
    scheme: str = "amri:cdia-highest",
    *,
    ticks: int = 200,
    seed: int = 7,
    train: bool = True,
    train_ticks: int = 80,
    degrade: bool = False,
    flight_recorder_capacity: int = 4096,
) -> tuple[RunStats, RegistrySnapshot, float]:
    """Run one scheme with a registry attached; return (stats, snapshot,
    meter_total) where ``snapshot.cost_total == meter_total`` exactly."""
    scenario = PaperScenario(scenario_params(scenario_name, seed))
    training = train_initial_state(scenario, train_ticks=train_ticks) if train else None
    registry = MetricsRegistry(flight_recorder_capacity=flight_recorder_capacity)
    executor = scenario.make_executor(
        scheme,
        **trained_start(training, scheme),
        event_log=EventLog(),
        degradation=DegradationPolicy() if degrade else None,
        metrics=registry,
    )
    stats = executor.run(ticks, scenario.make_generator())
    return stats, registry.snapshot(), executor.meter.total_spent


def reconciles(snapshot: RegistrySnapshot, meter_total: float) -> bool:
    """True when attribution accounts for the whole clock: the chronological
    grand total matches the meter exactly and the per-series regrouped sum
    matches within float-associativity tolerance."""
    if snapshot.cost_total != meter_total:
        return False
    series_sum = snapshot.sum_values("cost_units_total")
    scale = max(abs(meter_total), 1.0)
    return abs(series_sum - meter_total) <= RECONCILE_REL_TOL * scale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="per-component cost-unit profile of one engine run",
    )
    parser.add_argument("--scenario", choices=tuple(SCENARIO_PARAMS), default="paper")
    parser.add_argument("--scheme", default="amri:cdia-highest")
    parser.add_argument("--ticks", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=20, help="rows in the cost table")
    parser.add_argument("--no-train", action="store_true", help="skip quasi-training")
    parser.add_argument("--train-ticks", type=int, default=80)
    parser.add_argument("--degrade", action="store_true", help="graceful degradation")
    parser.add_argument(
        "--metrics", type=Path, default=None, help="export snapshot (JSONL) to PATH"
    )
    parser.add_argument(
        "--trace", type=Path, default=None, help="export retained spans (JSONL) to PATH"
    )
    args = parser.parse_args(argv)
    try:  # a bad size or name is a usage error before any quasi-training
        RunSpec.check(
            scenario_params(args.scenario, args.seed),
            args.scheme,
            ticks=args.ticks,
            train_ticks=args.train_ticks,
            top=args.top,
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        stats, snapshot, meter_total = profile_scheme(
            args.scenario,
            args.scheme,
            ticks=args.ticks,
            seed=args.seed,
            train=not args.no_train,
            train_ticks=args.train_ticks,
            degrade=args.degrade,
        )
    except (ValueError, KeyError) as exc:
        print(f"profile failed: {exc}", file=sys.stderr)
        return 1

    title = (
        f"cost-unit profile — {args.scheme} on {args.scenario}, "
        f"{args.ticks} ticks (seed {args.seed})"
    )
    print(format_cost_profile(title, snapshot, top_k=args.top))
    print()
    print(
        format_table(
            ["outputs", "probes", "migrations", "died_at", "spans", "spans_dropped"],
            [
                [
                    stats.outputs,
                    stats.probes,
                    stats.migrations,
                    stats.died_at if stats.died_at is not None else "-",
                    len(snapshot.spans),
                    snapshot.spans_dropped,
                ]
            ],
        )
    )
    ok = reconciles(snapshot, meter_total)
    print(
        f"\nattributed total {snapshot.cost_total:,.1f} == virtual clock "
        f"{meter_total:,.1f}: {'OK' if ok else 'MISMATCH'}"
    )
    if args.metrics is not None:
        path = write_metrics(args.metrics, snapshot)
        print(f"metrics written to {path}")
    if args.trace is not None:
        path = write_trace(args.trace, snapshot)
        print(f"trace written to {path} ({len(snapshot.spans)} spans)")
    if not ok:
        print("cost attribution does not reconcile with the virtual clock", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
