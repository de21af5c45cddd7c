"""Divergent-fleet report CLI: ``python -m repro fleet``.

Runs one scheme as ``K`` divergent replicas — every replica holds the same
windows under a *complementary* index configuration (slot ``i`` of the
stream's :func:`~repro.core.selector.select_fleet` set) — and prints the
fleet report: a per-replica table (routing share, broadcasts absorbed,
modeled cost of won requests, per-stream index configurations) plus the
routing / degrade / retune event timeline.

``--mode broadcast`` runs the differential oracle (every request executes
on every replica; outputs deduplicate), ``--faults`` squeezes replica
``--fault-replica`` only, which is the degrade-to-broadcast drill: the
router marks the squeezed replica unhealthy and fans its traffic out to
the rest while the squeeze lasts.  ``--retune-interval N`` moves
adaptation up a level — the fleet merges the replicas' assessor
statistics every ``N`` ticks and re-selects the whole configuration set.
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.faults import FAULT_PROFILES
from repro.engine.tracing import EventLog
from repro.experiments.harness import run_scheme_fleet, train_initial_state
from repro.experiments.reporting import format_fleet_table, format_table
from repro.fleet import FLEET_DEGRADE, FLEET_RETUNE, REPLICA_ROUTE
from repro.workloads.scenarios import SCENARIO_PARAMS, PaperScenario, scenario_params

#: Fleet-level event kinds, in display order.
FLEET_EVENT_KINDS = (REPLICA_ROUTE, FLEET_DEGRADE, FLEET_RETUNE)


def format_fleet_timeline(title: str, events, *, max_lines: int = 12) -> str:
    """Routing / degrade / retune counts plus the non-routing one-liners.

    ``replica_route`` fires nearly every tick, so only its count is shown;
    degrade and retune events are rare and printed individually.
    """
    counts = {k: 0 for k in FLEET_EVENT_KINDS}
    for e in events:
        if e.kind in counts:
            counts[e.kind] += 1
    parts = [
        title,
        format_table(list(FLEET_EVENT_KINDS), [[counts[k] for k in FLEET_EVENT_KINDS]]),
    ]
    notable = [e for e in events if e.kind in (FLEET_DEGRADE, FLEET_RETUNE)]
    if notable:
        shown = notable[:max_lines]
        lines = [f"  {e}" for e in shown]
        if len(notable) > len(shown):
            lines.append(f"  ... {len(notable) - len(shown)} more")
        parts.append("\n".join(lines))
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro fleet", description=__doc__)
    parser.add_argument(
        "--scheme",
        default="amri:sria",
        help="one scheme (amri:<assessor> | hash:<k> | static | scan)",
    )
    parser.add_argument("--scenario", choices=tuple(SCENARIO_PARAMS), default="paper")
    parser.add_argument("--ticks", type=int, default=200)
    parser.add_argument("--train-ticks", type=int, default=100)
    parser.add_argument("--no-train", action="store_true", help="skip quasi-training")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--fleet",
        type=int,
        default=3,
        metavar="K",
        help="number of divergent replicas (default 3)",
    )
    parser.add_argument(
        "--mode",
        choices=("routed", "broadcast"),
        default="routed",
        help="cost-route each request to one replica, or broadcast to all "
        "(the differential oracle; outputs deduplicate either way)",
    )
    parser.add_argument(
        "--faults",
        choices=sorted(FAULT_PROFILES),
        default="none",
        help="deterministic fault profile attached to --fault-replica only",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed of the fault schedule"
    )
    parser.add_argument(
        "--fault-replica",
        type=int,
        default=0,
        help="replica index the fault plan attaches to (default 0)",
    )
    parser.add_argument(
        "--retune-interval",
        type=int,
        default=None,
        metavar="N",
        help="re-select the fleet's configuration set from merged assessor "
        "statistics every N ticks (default: initial set is kept)",
    )
    parser.add_argument(
        "--max-backlog",
        type=int,
        default=4096,
        help="backlog bar above which a replica stops being route-eligible",
    )
    args = parser.parse_args(argv)
    if args.fleet < 1:
        parser.error(f"--fleet must be >= 1, got {args.fleet}")
    if not (0 <= args.fault_replica < args.fleet):
        parser.error(
            f"--fault-replica must be in [0, {args.fleet}), got {args.fault_replica}"
        )
    if args.retune_interval is not None and args.retune_interval < 1:
        parser.error(
            f"--retune-interval must be >= 1, got {args.retune_interval}"
        )
    if args.max_backlog < 1:
        parser.error(f"--max-backlog must be >= 1, got {args.max_backlog}")

    scenario = PaperScenario(scenario_params(args.scenario, args.seed))
    training = (
        None if args.no_train else train_initial_state(scenario, train_ticks=args.train_ticks)
    )
    fleet_log = EventLog()
    stats, engine = run_scheme_fleet(
        scenario,
        args.scheme,
        args.ticks,
        fleet=args.fleet,
        training=training,
        mode=args.mode,
        faults=None if args.faults == "none" else args.faults,
        fault_seed=args.fault_seed,
        fault_replica=args.fault_replica,
        retune_interval=args.retune_interval,
        max_backlog=args.max_backlog,
        fleet_event_log=fleet_log,
    )
    died = stats.died_at if stats.died_at is not None else "-"
    print(
        f"{args.scenario} scenario, {args.scheme}, K={args.fleet} ({args.mode}), "
        f"{args.ticks} ticks: {stats.outputs} outputs, died at {died}, "
        f"{stats.migrations} migrations"
    )
    print()
    print(format_fleet_table("per-replica fleet report", engine.replica_rows()))
    print()
    print(format_fleet_timeline("fleet event timeline", list(fleet_log)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
