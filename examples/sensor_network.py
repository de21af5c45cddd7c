"""Sensor network monitoring: bursty arrivals over a 3-way join.

An extension scenario beyond the paper's Section V setup (which is a steady
4-way join): *readings*, *alerts*, and *maintenance* events are pairwise
correlated, arrivals follow a diurnal cycle with event bursts, and join
selectivities drift.  Bursts are where index quality matters most — a
mis-tuned index turns each burst into backlog that presses on the memory
budget — so this is the stress test for AMRI's tuner.

Run:  python examples/sensor_network.py          (~40 seconds)
      python examples/sensor_network.py --quick  (~10 seconds)
"""

import argparse

from repro.experiments import (
    RunSpec,
    execute_spec,
    format_summary,
    format_throughput_figure,
)
from repro.workloads import sensor_network_scenario


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    ticks = 120 if args.quick else 400

    scenario = sensor_network_scenario()
    print(f"query: {scenario.query!r}")
    print("arrivals: diurnal cycle + 3x event bursts; selectivity drift every "
          f"{scenario.params.phase_len} ticks\n")

    runs = {
        scheme: execute_spec(RunSpec(scenario.params, scheme, ticks, train_ticks=60)).stats
        for scheme in ("amri:cdia-highest", "static", "hash:2")
    }
    print(format_throughput_figure("cumulative results (output tuples)", runs))
    amri = runs["amri:cdia-highest"].outputs
    print()
    print(
        format_summary(
            "who wins under bursts:",
            [
                ("AMRI", amri, "non-adapting bitmap", runs["static"].outputs),
                ("AMRI", amri, "multi-hash (2 modules)", runs["hash:2"].outputs),
            ],
        )
    )
    for name, stats in runs.items():
        peak_backlog = max(s.backlog for s in stats.samples)
        state = "completed" if stats.completed else f"OOM at tick {stats.died_at}"
        print(f"  {name}: {state}; peak burst backlog {peak_backlog} requests")


if __name__ == "__main__":
    main()
