"""Generic experiment runner CLI with CSV export.

``python -m repro.experiments.run --schemes amri:cdia-highest,hash:3,static
--ticks 400 --csv results/`` runs the named schemes over the paper scenario
(or the sensor scenario with ``--scenario sensor``) and writes one CSV per
scheme (tick, cumulative outputs, memory, backlog) plus a summary CSV —
enough to re-plot any figure outside this repository.

Robustness flags: ``--faults <profile>`` injects a deterministic fault
schedule (``--fault-seed`` varies it independently of the workload seed),
``--degrade`` enables graceful degradation instead of OOM death, and the
report gains a per-scheme fault/shed/degrade/death timeline (also exported
as ``<scenario>_events.csv`` with ``--csv``).

Observability flags: ``--metrics DIR`` attaches a metrics registry to every
scheme, prints a cross-scheme cost breakdown by component, and writes one
``<scenario>_<scheme>_metrics.jsonl`` snapshot per scheme; ``--trace DIR``
additionally writes each scheme's flight-recorder spans as
``<scenario>_<scheme>_trace.jsonl``.  Metrics are observer-effect-free:
the run results are byte-identical with the flags on or off.

SLO flags: ``--slo 'p95<=8@120'`` arms per-tuple latency tracking and
multi-window burn-rate monitoring against the given objective (append
``:degrade`` to close the loop — a breach sheds backlog through the
degradation policy); the report gains a latency/SLO table and
``--slo-report DIR`` writes one ``<scenario>_<scheme>_slo.jsonl`` per
scheme (latency records plus breach/recovery events).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.engine.faults import FAULT_PROFILES
from repro.engine.kernel import SCHEDULERS
from repro.engine.metrics import MetricsRegistry, RegistrySnapshot
from repro.engine.metrics_export import event_records, to_jsonl_lines, write_metrics, write_trace
from repro.engine.resources import DegradationPolicy
from repro.engine.slo import (
    SLO_BREACH,
    SLO_RECOVERED,
    LatencySnapshot,
    LatencyTracker,
    SloMonitor,
    SloSpec,
)
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent, EventLog
from repro.experiments.harness import (
    run_scheme,
    run_scheme_fleet,
    run_scheme_partitioned,
    train_initial_state,
)
from repro.storage import BACKENDS, UnknownBackendError
from repro.experiments.reporting import (
    format_component_breakdown,
    format_fault_timeline,
    format_fleet_table,
    format_slo_report,
    format_table,
    format_throughput_figure,
)
from repro.workloads.scenarios import PaperScenario, ScenarioParams, sensor_network_scenario

SCENARIOS = ("paper", "sensor")


def build_scenario(name: str, seed: int) -> PaperScenario:
    """Instantiate a named scenario."""
    if name == "paper":
        return PaperScenario(ScenarioParams(seed=seed))
    if name == "sensor":
        return sensor_network_scenario(seed=seed)
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")


def write_series_csv(path: Path, stats: RunStats) -> None:
    """One scheme's throughput series as CSV."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "outputs", "cost_spent", "memory_bytes", "backlog"])
        for s in stats.samples:
            writer.writerow([s.tick, s.outputs, f"{s.cost_spent:.1f}", s.memory_bytes, s.backlog])


def write_summary_csv(path: Path, runs: dict[str, RunStats]) -> None:
    """Cross-scheme summary as CSV."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "scheme",
                "outputs",
                "died_at",
                "migrations",
                "probes",
                "source_tuples",
                "faults_injected",
                "shed_tuples",
                "degradations",
            ]
        )
        for name, stats in runs.items():
            writer.writerow(
                [
                    name,
                    stats.outputs,
                    stats.died_at,
                    stats.migrations,
                    stats.probes,
                    stats.source_tuples,
                    stats.faults_injected,
                    stats.shed_tuples,
                    stats.degradations,
                ]
            )


def write_events_csv(path: Path, events_by_scheme: dict[str, list[EngineEvent]]) -> None:
    """Every scheme's event timeline as one CSV (scheme, tick, kind, ...)."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "tick", "kind", "stream", "detail"])
        for name, events in events_by_scheme.items():
            for e in events:
                detail = ";".join(f"{k}={v}" for k, v in e.detail.items())
                writer.writerow([name, e.tick, e.kind, e.stream or "", detail])


def reject_bad_run(
    parser: argparse.ArgumentParser,
    scenario: PaperScenario,
    schemes: list[str],
    ticks: int,
    train_ticks: int,
) -> None:
    """Exit 2 (``parser.error``) on a bad run size or scheme name — called
    before any quasi-training, so a typo costs nothing."""
    if ticks < 1:
        parser.error(f"--ticks must be >= 1, got {ticks}")
    if train_ticks < 1:
        parser.error(f"--train-ticks must be >= 1, got {train_ticks}")
    for scheme in schemes:
        try:
            scenario.check_scheme(scheme)
        except ValueError as exc:
            parser.error(str(exc))


def format_backend_table() -> str:
    """The index backend registry as a printable table."""
    rows = []
    for name in BACKENDS.names():
        d = BACKENDS.resolve(name)
        caps = d.capabilities
        flags = [
            label
            for label, on in (
                ("reconfigurable", caps.reconfigurable),
                ("tunable", caps.tunable),
                ("per-pattern", caps.per_pattern_modules),
                ("unindexed", caps.unindexed),
            )
            if on
        ]
        mem = d.memory
        shape = f"{mem.slots_per_tuple} slot/tuple"
        if mem.entries_per_attribute:
            shape += f", {mem.entries_per_attribute} entry/attr"
        if mem.bucket_overhead:
            shape += ", bucket overhead"
        rows.append([name, d.cls.__name__, ", ".join(flags) or "-", shape, d.summary])
    return format_table(
        ["backend", "class", "capabilities", "memory shape", "summary"], rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro run", description=__doc__)
    parser.add_argument(
        "--schemes",
        default="amri:cdia-highest,static",
        help="comma-separated list (amri:<assessor> | hash:<k> | static | scan)",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, default="paper")
    parser.add_argument("--ticks", type=int, default=400)
    parser.add_argument("--train-ticks", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-train", action="store_true", help="skip quasi-training")
    parser.add_argument("--csv", type=Path, default=None, help="directory for CSV export")
    parser.add_argument(
        "--faults",
        choices=sorted(FAULT_PROFILES),
        default="none",
        help="deterministic fault-injection profile",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed of the fault schedule"
    )
    parser.add_argument(
        "--degrade",
        action="store_true",
        help="shed backlog / fall back to scan under memory pressure instead of dying",
    )
    parser.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULERS),
        default="fifo",
        help="backlog-drain policy (fifo = historical arrival order)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="hash-partition each scheme across K independent kernels (1 = off)",
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=1,
        help="run each scheme as K divergent replicas holding complementary "
        "index sets, with every search request cost-routed to the cheapest "
        "healthy replica (1 = off; mutually exclusive with --partitions)",
    )
    parser.add_argument(
        "--index-backend",
        default=None,
        help="override every state's physical index with a registered backend "
        "(see repro.storage.BACKENDS; the scheme's assessment is kept)",
    )
    parser.add_argument(
        "--migration-budget",
        type=int,
        default=None,
        help="tuples an index migration may relocate per tick "
        "(default: unbudgeted single-tick rebuild)",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="print the index backend registry (name, capabilities, memory "
        "shape) and exit",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="directory for per-scheme metrics snapshots (JSONL) + breakdown report",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="directory for per-scheme flight-recorder span exports (JSONL)",
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="arm per-tuple latency tracking against an SLO spec, e.g. "
        "'p95<=8@120' (append '/FAST' for the fast burn window and "
        "':degrade' to shed backlog on breach)",
    )
    parser.add_argument(
        "--slo-report",
        type=Path,
        default=None,
        help="directory for per-scheme latency/SLO reports (JSONL; requires --slo)",
    )
    args = parser.parse_args(argv)
    if args.list_backends:
        print(format_backend_table())
        return 0
    if args.partitions < 1:
        parser.error(f"--partitions must be >= 1, got {args.partitions}")
    if args.fleet < 1:
        parser.error(f"--fleet must be >= 1, got {args.fleet}")
    if args.fleet > 1 and args.partitions > 1:
        parser.error("--fleet and --partitions are mutually exclusive")
    if args.index_backend is not None:
        try:
            BACKENDS.resolve(args.index_backend)
        except UnknownBackendError as exc:
            parser.error(str(exc))
    if args.migration_budget is not None and args.migration_budget < 1:
        parser.error(f"--migration-budget must be >= 1, got {args.migration_budget}")
    slo_spec = None
    if args.slo is not None:
        try:
            slo_spec = SloSpec.parse(args.slo)
        except ValueError as exc:
            parser.error(str(exc))
    if args.slo_report is not None and slo_spec is None:
        parser.error("--slo-report requires --slo")

    scenario = build_scenario(args.scenario, args.seed)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        parser.error(f"--schemes names no scheme, got {args.schemes!r}")
    reject_bad_run(parser, scenario, schemes, args.ticks, args.train_ticks)
    training = (
        None if args.no_train else train_initial_state(scenario, train_ticks=args.train_ticks)
    )
    faults = None if args.faults == "none" else args.faults
    engine_options = dict(
        training=training,
        faults=faults,
        fault_seed=args.fault_seed,
        degradation=DegradationPolicy() if args.degrade else None,
        scheduler=args.scheduler,
        index_backend=args.index_backend,
        migration_budget=args.migration_budget,
    )
    want_metrics = args.metrics is not None or args.trace is not None
    runs: dict[str, RunStats] = {}
    events: dict[str, list[EngineEvent]] = {}
    snapshots: dict[str, RegistrySnapshot] = {}
    latencies: dict[str, LatencySnapshot] = {}
    monitors: dict[str, list[SloMonitor]] = {}
    fleet_rows: dict[str, list[dict[str, object]]] = {}
    for scheme in schemes:
        if args.fleet > 1:
            # Same factory pattern as --partitions: every replica gets its
            # own log/registry/tracker, merged deterministically after; the
            # fleet-level log records routing and degrade decisions.
            fleet_log = EventLog()
            runs[scheme], engine = run_scheme_fleet(
                scenario,
                scheme,
                args.ticks,
                fleet=args.fleet,
                fleet_event_log=fleet_log,
                event_log=EventLog,
                metrics=MetricsRegistry if want_metrics else None,
                latency=(
                    (lambda: LatencyTracker(threshold=slo_spec.threshold_ticks))
                    if slo_spec is not None
                    else None
                ),
                slo=(lambda: SloMonitor(slo_spec)) if slo_spec is not None else None,
                **engine_options,
            )
            merged_events = [event for _, event in engine.merged_events()]
            merged_events.extend(fleet_log)
            merged_events.sort(key=lambda e: e.tick)
            events[scheme] = merged_events
            fleet_rows[scheme] = engine.replica_rows()
            if want_metrics:
                snap = engine.merged_snapshot()
                if snap is not None:
                    snapshots[scheme] = snap
            if slo_spec is not None:
                merged = engine.merged_latency()
                if merged is not None:
                    latencies[scheme] = merged
                monitors[scheme] = [
                    ex.slo for ex in engine.executors if ex.slo is not None
                ]
            continue
        if args.partitions > 1:
            # Per-partition attachments go in as factories: every kernel
            # gets its own log/registry/tracker, merged deterministically after.
            runs[scheme], engine = run_scheme_partitioned(
                scenario,
                scheme,
                args.ticks,
                partitions=args.partitions,
                event_log=EventLog,
                metrics=MetricsRegistry if want_metrics else None,
                latency=(
                    (lambda: LatencyTracker(threshold=slo_spec.threshold_ticks))
                    if slo_spec is not None
                    else None
                ),
                slo=(lambda: SloMonitor(slo_spec)) if slo_spec is not None else None,
                **engine_options,
            )
            events[scheme] = [event for _, event in engine.merged_events()]
            if want_metrics:
                snapshots[scheme] = engine.merged_snapshot()
            if slo_spec is not None:
                merged = engine.merged_latency()
                if merged is not None:
                    latencies[scheme] = merged
                monitors[scheme] = [
                    ex.slo for ex in engine.executors if ex.slo is not None
                ]
            continue
        log = EventLog()
        registry = MetricsRegistry() if want_metrics else None
        tracker = (
            LatencyTracker(threshold=slo_spec.threshold_ticks)
            if slo_spec is not None
            else None
        )
        monitor = SloMonitor(slo_spec) if slo_spec is not None else None
        runs[scheme] = run_scheme(
            scenario,
            scheme,
            args.ticks,
            event_log=log,
            metrics=registry,
            latency=tracker,
            slo=monitor,
            **engine_options,
        )
        events[scheme] = list(log)
        if registry is not None:
            snapshots[scheme] = registry.snapshot()
        if tracker is not None:
            latencies[scheme] = tracker.snapshot()
            monitors[scheme] = [monitor]

    print(format_throughput_figure(f"{args.scenario} scenario, {args.ticks} ticks", runs))
    rows = [
        [name, stats.outputs, stats.died_at if stats.died_at is not None else "-", stats.migrations]
        for name, stats in runs.items()
    ]
    print(format_table(["scheme", "outputs", "died at", "migrations"], rows))
    for name, replica_rows in fleet_rows.items():
        print()
        print(
            format_fleet_table(
                f"fleet routing ({name}, K={args.fleet})", replica_rows
            )
        )
    if faults is not None or any(events.values()):
        title = (
            f"\nfault timeline ({args.faults}, fault seed {args.fault_seed})"
            if faults is not None
            else "\nevent timeline"
        )
        print(format_fault_timeline(title, events))

    if snapshots:
        print()
        print(format_component_breakdown("cost units by component", snapshots))

    if latencies:
        print()
        print(
            format_slo_report(
                f"latency / SLO ({slo_spec.describe()}), ticks as units",
                latencies,
                monitors,
            )
        )

    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        for name, stats in runs.items():
            safe = name.replace(":", "_")
            write_series_csv(args.csv / f"{args.scenario}_{safe}.csv", stats)
        write_summary_csv(args.csv / f"{args.scenario}_summary.csv", runs)
        write_events_csv(args.csv / f"{args.scenario}_events.csv", events)
        print(f"\nCSV written to {args.csv}/")
    if args.metrics is not None:
        for name, snap in snapshots.items():
            safe = name.replace(":", "_")
            write_metrics(args.metrics / f"{args.scenario}_{safe}_metrics.jsonl", snap)
        print(f"metrics written to {args.metrics}/")
    if args.trace is not None:
        for name, snap in snapshots.items():
            safe = name.replace(":", "_")
            write_trace(args.trace / f"{args.scenario}_{safe}_trace.jsonl", snap)
        print(f"traces written to {args.trace}/")
    if args.slo_report is not None:
        args.slo_report.mkdir(parents=True, exist_ok=True)
        for name, snap in latencies.items():
            safe = name.replace(":", "_")
            records = list(snap.to_records())
            records.extend(
                event_records(
                    e for e in events[name] if e.kind in (SLO_BREACH, SLO_RECOVERED)
                )
            )
            lines = to_jsonl_lines(records)
            path = args.slo_report / f"{args.scenario}_{safe}_slo.jsonl"
            path.write_text("\n".join(lines) + ("\n" if lines else ""))
        print(f"SLO reports written to {args.slo_report}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
