"""Stock monitoring: the full AMR engine on the paper's motivating workload.

Section I motivates AMRI with an analyst combining live *price* and *volume*
data with *news* and *sector* feeds.  This example builds that query as a
4-way join (every pair of feeds correlated on its own key, exactly the
Section V topology), runs it with drifting selectivities, and compares
cumulative throughput of three index schemes over identical arrivals:

- AMRI (bit-address index + CDIA-highest tuning),
- the multi-hash access-module baseline (3 modules, adaptively retuned),
- a non-adapting bitmap index.

Run:  python examples/stock_monitoring.py          (~1 minute)
      python examples/stock_monitoring.py --quick  (~15 seconds)
"""

import argparse

from repro.experiments import (
    RunSpec,
    execute_spec,
    format_summary,
    format_throughput_figure,
)
from repro.workloads import PaperScenario, ScenarioParams


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="shorter run")
    args = parser.parse_args()
    ticks = 150 if args.quick else 450

    # The four feeds; every pair shares a correlation key (ticker buckets,
    # sector codes, ...), giving each state 3 join attributes — the paper's
    # evaluation topology with market-flavoured names.
    scenario = PaperScenario(
        ScenarioParams(stream_names=("price", "volume", "news", "sector"), seed=11)
    )
    print(f"query: {scenario.query!r}")
    print(f"state JAS example: {list(scenario.query.jas_for('price').names)}")

    # One spec per scheme: each starts from the same quasi-trained state
    # (trained once, then shared) and sees identical arrivals.
    runs = {
        scheme: execute_spec(RunSpec(scenario.params, scheme, ticks, train_ticks=80)).stats
        for scheme in ("amri:cdia-highest", "hash:3", "static")
    }
    print()
    print(format_throughput_figure("cumulative results (output tuples)", runs))
    amri = runs["amri:cdia-highest"].outputs
    print()
    print(
        format_summary(
            "who wins:",
            [
                ("AMRI", amri, "multi-hash (3 modules)", runs["hash:3"].outputs),
                ("AMRI", amri, "non-adapting bitmap", runs["static"].outputs),
            ],
        )
    )
    for name, stats in runs.items():
        state = "completed" if stats.completed else f"out of memory at tick {stats.died_at}"
        print(f"  {name}: {state}; {stats.migrations} index migrations")


if __name__ == "__main__":
    main()
