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

Latency flag: ``--latency DIR`` counts every request's queueing latency
in ticks, prints exact p50/p95/p99 per scheme with the requests shed and
still queued at the end, and writes one ``<scenario>_<scheme>_latency.jsonl``
per scheme.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.engine.faults import FAULT_PROFILES
from repro.engine.metrics_export import write_jsonl, write_metrics, write_trace
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent
from repro.experiments.parallel import RunSpec, run_parallel
from repro.experiments.reporting import (
    format_component_breakdown,
    format_fault_timeline,
    format_latency_report,
    format_table,
    format_throughput_figure,
)
from repro.workloads.scenarios import SCENARIO_PARAMS, parse_scheme_list, scenario_params


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro run", description=__doc__)
    parser.add_argument(
        "--schemes",
        default="amri:cdia-highest,static",
        help="comma-separated list (amri:<assessor> | hash:<k> | static | inverted | scan)",
    )
    parser.add_argument("--scenario", choices=tuple(SCENARIO_PARAMS), default="paper")
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
        "--latency",
        type=Path,
        default=None,
        help="directory for per-scheme queueing-latency records (JSONL) + latency table",
    )
    args = parser.parse_args(argv)
    faults = None if args.faults == "none" else args.faults
    try:
        schemes = parse_scheme_list(args.schemes)
        specs = [
            RunSpec(
                scenario_params(args.scenario, args.seed),
                scheme,
                args.ticks,
                train=not args.no_train,
                train_ticks=args.train_ticks,
                faults=faults,
                fault_seed=args.fault_seed,
                degrade=args.degrade,
                collect_metrics=args.metrics is not None or args.trace is not None,
                collect_latency=args.latency is not None,
            )
            for scheme in schemes
        ]
    except ValueError as exc:
        parser.error(str(exc))
    print(specs[0].describe(schemes))
    outcomes = dict(zip(schemes, run_parallel(specs, workers=0)))

    runs = {name: out.stats for name, out in outcomes.items()}
    events = {name: list(out.events) for name, out in outcomes.items()}
    snapshots = {name: out.metrics for name, out in outcomes.items() if out.metrics is not None}
    latencies = {name: out.latency for name, out in outcomes.items() if out.latency is not None}

    print(format_throughput_figure(f"{args.scenario} scenario, {args.ticks} ticks", runs))
    rows = [
        [name, stats.outputs, stats.died_at if stats.died_at is not None else "-", stats.migrations]
        for name, stats in runs.items()
    ]
    print(format_table(["scheme", "outputs", "died at", "migrations"], rows))
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
        print(format_latency_report("queueing latency (ticks)", latencies))

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
    if args.latency is not None:
        for name, snap in latencies.items():
            safe = name.replace(":", "_")
            write_jsonl(args.latency / f"{args.scenario}_{safe}_latency.jsonl", snap.to_records())
        print(f"latency written to {args.latency}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
