"""Latency/SLO report CLI: ``python -m repro slo``.

Runs each scheme over each scenario with per-tuple latency tracking armed
against one objective (default ``p95<=8@120``) and reports tail latency
(p50/p95/p99), the violation fraction, error-budget burn, and the breach /
recovery timeline — as a text table per scenario and, with ``--json``, as
one self-describing JSONL file (latency records plus SLO events, each
tagged with its scenario and scheme).

Runs go through :class:`~repro.experiments.parallel.RunSpec` /
:func:`~repro.experiments.parallel.execute_spec`, so the fault and
degradation flags mean here what they mean on ``repro run``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine.faults import FAULT_PROFILES
from repro.engine.slo import SLO_BREACH, SLO_RECOVERED, SloSpec
from repro.engine.metrics_export import event_records, to_jsonl_lines
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.reporting import BreachSummary, format_slo_report
from repro.workloads.scenarios import SCENARIO_PARAMS, parse_scheme_list, scenario_params

SLO_EVENT_KINDS = (SLO_BREACH, SLO_RECOVERED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro slo", description=__doc__)
    parser.add_argument(
        "--scenarios",
        default="paper,sensor",
        help=f"comma-separated scenario names from {tuple(SCENARIO_PARAMS)}",
    )
    parser.add_argument(
        "--schemes",
        default="amri:cdia-highest,static",
        help="comma-separated list (amri:<assessor> | hash:<k> | static | inverted | scan)",
    )
    parser.add_argument("--ticks", type=int, default=200)
    parser.add_argument("--train-ticks", type=int, default=100)
    parser.add_argument("--no-train", action="store_true", help="skip quasi-training")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--slo",
        default="p95<=8@120",
        metavar="SPEC",
        help="objective, e.g. 'p95<=8@120' (append '/FAST' for the fast "
        "burn window and ':degrade' to shed backlog on breach)",
    )
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
        help="attach the degradation policy (required for ':degrade' objectives to act)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the full report (latency records + SLO events) as one JSONL file",
    )
    args = parser.parse_args(argv)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    try:
        schemes = parse_scheme_list(args.schemes)
        spec = SloSpec.parse(args.slo)
        specs = {
            scenario_name: [
                RunSpec(
                    scenario_params(scenario_name, args.seed),
                    scheme,
                    args.ticks,
                    train=not args.no_train,
                    train_ticks=args.train_ticks,
                    faults=None if args.faults == "none" else args.faults,
                    fault_seed=args.fault_seed,
                    degrade=args.degrade,
                    slo=args.slo,
                )
                for scheme in schemes
            ]
            for scenario_name in scenarios
        }
    except ValueError as exc:
        parser.error(str(exc))

    records: list[dict[str, object]] = [
        {"record": "slo_report", "objective": spec.describe(), "ticks": args.ticks}
    ]
    for scenario_name, scenario_specs in specs.items():
        print(scenario_specs[0].describe(schemes))
        latencies = {}
        monitors = {}
        events_seen = 0
        for run_spec in scenario_specs:
            scheme = run_spec.scheme
            outcome = execute_spec(run_spec)
            snap = outcome.latency
            if snap is None:  # pragma: no cover - slo is always armed here
                continue
            slo_events = [e for e in outcome.events if e.kind in SLO_EVENT_KINDS]
            latencies[scheme] = snap
            monitors[scheme] = BreachSummary.from_events(spec, slo_events)
            events_seen += len(slo_events)
            tags = {"scenario": scenario_name, "scheme": scheme}
            records.extend({**rec, **tags} for rec in snap.to_records())
            records.extend({**rec, **tags} for rec in event_records(slo_events))
        print(
            format_slo_report(
                f"{scenario_name}: latency / SLO ({spec.describe()}), "
                f"{args.ticks} ticks",
                latencies,
                monitors,
            )
        )
        if events_seen:
            print(f"  {events_seen} SLO breach/recovery events (see --json for the timeline)")
        print()

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        lines = to_jsonl_lines(records)
        args.json.write_text("\n".join(lines) + "\n")
        print(f"JSONL report written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
