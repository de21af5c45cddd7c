"""Generic experiment runner CLI with CSV export.

``python -m repro.experiments.run --schemes amri:cdia-highest,hash:3,static
--ticks 400 --csv results/`` runs the named schemes over the paper scenario
(or the sensor scenario with ``--scenario sensor``) and writes one CSV per
scheme (tick, cumulative outputs, memory, backlog) plus a summary CSV —
enough to re-plot any figure outside this repository.

Robustness flag: ``--degrade`` enables graceful degradation instead of
OOM death; a run that sheds, degrades or dies gains a per-scheme
shed/degrade/death timeline.  ``--csv`` always writes every scheme's
events to ``<scenario>_events.csv`` (only the header row when no event
fired).

Observability flags: ``--metrics DIR`` and ``--trace DIR`` attach a metrics
registry to every scheme and print, per scheme, the live Table-2 — the
cost units of each ``(component, stream, index_kind, phase)`` series and
their TOTAL — and the check that the TOTAL reconciles with the virtual
clock; a run whose attribution does not reconcile writes its exports and
exits 1.  ``--metrics`` writes one ``<scenario>_<scheme>_metrics.jsonl``
snapshot per scheme; ``--trace`` writes each scheme's timeline as
``<scenario>_<scheme>_trace.jsonl``: its retained spans and every event,
one JSONL ordered by tick.  Metrics are observer-effect-free: the run
results are byte-identical with the flags on or off.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.engine.metrics_export import write_metrics, write_trace
from repro.engine.stats import RunStats
from repro.engine.tracing import EngineEvent
from repro.experiments.parallel import RunSpec, reconciles, run_parallel
from repro.experiments.reporting import (
    TIMELINE_KINDS,
    format_cost_profile,
    format_event_timeline,
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
        "--degrade",
        action="store_true",
        help="shed backlog / fall back to scan under memory pressure instead of dying",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="directory for per-scheme metrics snapshots (JSONL) + cost tables",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="directory for per-scheme timelines: spans and events by tick (JSONL)",
    )
    args = parser.parse_args(argv)
    try:
        schemes = parse_scheme_list(args.schemes)
        specs = [
            RunSpec(
                scenario_params(args.scenario, args.seed),
                scheme,
                args.ticks,
                train=not args.no_train,
                train_ticks=args.train_ticks,
                degrade=args.degrade,
                collect_metrics=args.metrics is not None or args.trace is not None,
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

    print(format_throughput_figure(f"{args.scenario} scenario, {args.ticks} ticks", runs))
    rows = [
        [name, stats.outputs, stats.died_at if stats.died_at is not None else "-", stats.migrations]
        for name, stats in runs.items()
    ]
    print(format_table(["scheme", "outputs", "died at", "migrations"], rows))
    if any(e.kind in TIMELINE_KINDS for scheme_events in events.values() for e in scheme_events):
        print(format_event_timeline("\nevent timeline", events))

    reconciled = True
    for name, snap in snapshots.items():
        meter_total = outcomes[name].meter_total
        ok = reconciles(snap, meter_total)
        reconciled &= ok
        title = (
            f"cost-unit profile — {name} on {args.scenario}, "
            f"{args.ticks} ticks (seed {args.seed})"
        )
        print(f"\n{format_cost_profile(title, snap)}")
        print(
            f"attributed total {snap.cost_total:,.1f} == virtual clock "
            f"{meter_total:,.1f}: {'OK' if ok else 'MISMATCH'}"
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
            write_trace(args.trace / f"{args.scenario}_{safe}_trace.jsonl", snap, events[name])
        print(f"traces written to {args.trace}/")
    if not reconciled:
        print("cost attribution does not reconcile with the virtual clock", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
