"""Regeneration entry points for every figure and table in Section V.

Each function runs the corresponding experiment and returns the raw series;
``python -m repro.experiments.figures <target>`` prints them as ASCII
figures.  Targets: ``fig6`` (assessment methods), ``fig6-hash`` (hash-index
trials), ``fig7`` (AMRI vs best hash vs non-adapting bitmap), ``table2``
(the CSRIA-vs-CDIA worked example), ``sensor`` (the bursty extension
scenario), ``all`` (the paper's figures; sensor excluded).

Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA, CSRIA
from repro.core.cost_model import WorkloadStatistics
from repro.core.selector import select_exhaustive
from repro.engine.stats import RunStats
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.reporting import (
    format_summary,
    format_table,
    format_throughput_figure,
)
from repro.workloads.scenarios import ScenarioParams, sensor_network_params

DEFAULT_TICKS = 600
ASSESSMENT_SCHEMES = [
    "amri:sria",
    "amri:csria",
    "amri:dia",
    "amri:cdia-random",
    "amri:cdia-highest",
]
HASH_KS = (1, 2, 3, 4, 5, 6, 7)


def _runs(
    schemes: list[str], ticks: int, train_ticks: int, params: ScenarioParams
) -> dict[str, RunStats]:
    """Every scheme from the one quasi-trained start over identical
    arrivals, scheme → stats.  All specs are built (and so validated)
    before any of them trains or runs."""
    specs = [RunSpec(params, scheme, ticks, train_ticks=train_ticks) for scheme in schemes]
    return {spec.scheme: execute_spec(spec).stats for spec in specs}


# --------------------------------------------------------------------- #
# Figure 6 — index assessment methods


def figure6_assessment(
    ticks: int = DEFAULT_TICKS, *, seed: int = 7, train_ticks: int = 120
) -> dict[str, RunStats]:
    """Cumulative throughput of SRIA / CSRIA / DIA / CDIA-random / CDIA-highest."""
    return _runs(ASSESSMENT_SCHEMES, ticks, train_ticks, ScenarioParams(seed=seed))


# --------------------------------------------------------------------- #
# Figure 6 — state-of-the-art hash-index trials (1..7 modules)


def figure6_hash(
    ticks: int = DEFAULT_TICKS,
    *,
    seed: int = 7,
    train_ticks: int = 120,
    ks: tuple[int, ...] = HASH_KS,
) -> dict[str, RunStats]:
    """Adaptive multi-hash trials with 1..7 modules (plus AMRI for scale)."""
    schemes = [f"hash:{k}" for k in ks] + ["amri:cdia-highest"]
    return _runs(schemes, ticks, train_ticks, ScenarioParams(seed=seed))


# --------------------------------------------------------------------- #
# Figure 7 — AMRI vs best hash vs non-adapting bitmap


def figure7(
    ticks: int = DEFAULT_TICKS,
    *,
    seed: int = 7,
    train_ticks: int = 120,
    ks: tuple[int, ...] = HASH_KS,
) -> tuple[dict[str, RunStats], str]:
    """The headline comparison; returns (runs, best hash scheme name)."""
    hash_schemes = [f"hash:{k}" for k in ks]
    schemes = hash_schemes + ["amri:cdia-highest", "static"]
    runs = _runs(schemes, ticks, train_ticks, ScenarioParams(seed=seed))
    best_hash = max(hash_schemes, key=lambda name: runs[name].outputs)
    return {
        "amri:cdia-highest": runs["amri:cdia-highest"],
        best_hash: runs[best_hash],
        "static-bitmap": runs["static"],
    }, best_hash


# --------------------------------------------------------------------- #
# Table II — the CSRIA vs CDIA worked example


def table2_frequencies(jas: JoinAttributeSet) -> dict[AccessPattern, float]:
    """The exact frequency table of Table II."""
    ap = lambda *names: AccessPattern.from_attributes(jas, names)  # noqa: E731
    return {
        ap("A"): 0.04,
        ap("B"): 0.10,
        ap("C"): 0.10,
        ap("A", "B"): 0.04,
        ap("A", "C"): 0.16,
        ap("B", "C"): 0.10,
        ap("A", "B", "C"): 0.46,
    }


def table2(
    *,
    n_requests: int = 10_000,
    theta: float = 0.05,
    epsilon: float = 0.001,
    budget: int = 4,
    seed: int = 0,
) -> dict[str, object]:
    """Run the Section IV-C2/IV-D2 worked example end to end.

    Feeds the Table II distribution (shuffled, seeded) through CSRIA and
    CDIA, then selects a 4-bit IC from (a) the full statistics, (b) CSRIA's
    surviving statistics, (c) CDIA's combined statistics.
    """
    jas = JoinAttributeSet(["A", "B", "C"])
    freqs = table2_frequencies(jas)

    rng = random.Random(seed)
    requests: list[AccessPattern] = []
    for ap, f in freqs.items():
        requests.extend([ap] * round(f * n_requests))
    rng.shuffle(requests)

    csria = CSRIA(jas, epsilon)
    cdia = CDIA(jas, epsilon, combine="highest_count", seed=seed)
    for ap in requests:
        csria.record(ap)
        cdia.record(ap)

    csria_freqs = csria.frequent_patterns(theta)
    cdia_freqs = cdia.frequent_patterns(theta)

    def best_ic(frequencies):
        stats = WorkloadStatistics(
            lambda_d=100.0, lambda_r=100.0, window=10.0, frequencies=frequencies
        )
        return select_exhaustive(stats, jas, budget)

    return {
        "true_frequencies": freqs,
        "csria_frequencies": csria_freqs,
        "cdia_frequencies": cdia_freqs,
        "ic_true": best_ic(freqs),
        "ic_csria": best_ic(csria_freqs),
        "ic_cdia": best_ic(cdia_freqs),
    }


# --------------------------------------------------------------------- #
# printing


def print_fig6(ticks: int, seed: int) -> None:
    runs = figure6_assessment(ticks, seed=seed)
    print(format_throughput_figure(f"Figure 6 — index assessment methods (seed {seed} series)", runs))
    best = runs["amri:cdia-highest"].outputs
    print(
        format_summary(
            "Headlines (paper: CDIA-highest +19% over DIA/SRIA, +30% over CSRIA):",
            [
                ("cdia-highest", best, name, runs[f"amri:{name}"].outputs)
                for name in ("sria", "dia", "csria")
            ],
        )
    )
    sria, dia = runs["amri:sria"].outputs, runs["amri:dia"].outputs
    print(f"  DIA == SRIA (paper: equal): {dia} vs {sria}")


def print_fig6_hash(ticks: int, seed: int) -> None:
    runs = figure6_hash(ticks, seed=seed)
    print(format_throughput_figure("Figure 6 — multi-hash-index trials (1..7 modules)", runs))
    rows = []
    for name, stats in runs.items():
        rows.append(
            [
                name,
                stats.outputs,
                stats.died_at if stats.died_at is not None else "-",
            ]
        )
    print(format_table(["scheme", "outputs", "died at tick"], rows))


def print_fig7(ticks: int, seed: int) -> None:
    runs, best_hash = figure7(ticks, seed=seed)
    print(format_throughput_figure("Figure 7 — AMRI vs state of the art", runs))
    amri = runs["amri:cdia-highest"].outputs
    print(
        format_summary(
            "Headlines (paper: +93% over best hash, +75% over non-adapting bitmap):",
            [
                ("AMRI", amri, f"best hash ({best_hash})", runs[best_hash].outputs),
                ("AMRI", amri, "static bitmap", runs["static-bitmap"].outputs),
            ],
        )
    )


def print_sensor(ticks: int) -> None:
    """The extension scenario: burst survival under tuning (not in paper)."""
    runs = _runs(["amri:cdia-highest", "static", "hash:2"], ticks, 60, sensor_network_params())
    print(format_throughput_figure("Sensor-network extension — bursty 3-way join", runs))


def print_table2() -> None:
    result = table2()
    jas_order = sorted(result["true_frequencies"], key=lambda ap: (ap.level(), ap.mask))
    rows = []
    for ap in jas_order:
        rows.append(
            [
                repr(ap),
                f"{result['true_frequencies'].get(ap, 0):.0%}",
                f"{result['csria_frequencies'].get(ap, 0):.1%}" if ap in result["csria_frequencies"] else "deleted",
                f"{result['cdia_frequencies'].get(ap, 0):.1%}" if ap in result["cdia_frequencies"] else "combined",
            ]
        )
    print("Table II — worked example (theta=5%, epsilon=0.1%, 4-bit IC)")
    print(format_table(["pattern", "true f", "CSRIA", "CDIA"], rows))
    print(f"  IC from full statistics : {result['ic_true']}  (paper: A:1, B:1, C:2)")
    print(f"  IC from CSRIA statistics: {result['ic_csria']}  (paper: B:1, C:3)")
    print(f"  IC from CDIA statistics : {result['ic_cdia']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro figures", description=__doc__)
    parser.add_argument(
        "target", choices=["fig6", "fig6-hash", "fig7", "table2", "sensor", "all"]
    )
    parser.add_argument("--ticks", type=int, default=DEFAULT_TICKS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.target != "table2":
        try:  # a bad size is a usage error before any quasi-training
            RunSpec.check(ScenarioParams(seed=args.seed), "static", ticks=args.ticks)
        except ValueError as exc:
            parser.error(str(exc))
    if args.target in ("fig6", "all"):
        print_fig6(args.ticks, args.seed)
        print()
    if args.target in ("fig6-hash", "all"):
        print_fig6_hash(args.ticks, args.seed)
        print()
    if args.target in ("fig7", "all"):
        print_fig7(args.ticks, args.seed)
        print()
    if args.target in ("table2", "all"):
        print_table2()
    if args.target == "sensor":
        print_sensor(min(args.ticks, 400))
    return 0


if __name__ == "__main__":
    sys.exit(main())
