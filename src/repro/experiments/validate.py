"""Reproduction self-check: re-verify the paper's headline claims.

``python -m repro.experiments.validate`` measures the evaluation section's
five claims at a configurable scale: the Table II worked example, DIA ==
SRIA, CDIA ≥ SRIA (Figure 6), and AMRI over the 1..7-module hash trials
and over the non-adapting bitmap (Figure 7).  Thresholds sit well below
the paper's percentages so seed noise at reduced tick counts does not
flap, while still requiring the right *winner* in every comparison.

One seed (``--seeds 7``, the default) prints a PASS/FAIL table.  Several
(``--seeds 101-110``, the repository's :data:`SEEDS`) print each claim's
metric min / median / max and the seeds on which it holds; a claim passes
on ⌈0.9·N⌉ of N seeds.  :class:`Claim`, :data:`SEEDS` and :func:`summarise`
are the repository's one claim protocol; ``benchmarks/ablations.py``
states its claims with them too.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache

from repro.core.index_config import IndexConfiguration
from repro.engine.stats import RunStats
from repro.experiments.figures import table2
from repro.experiments.parallel import RunSpec, run_parallel
from repro.experiments.reporting import format_table, improvement_pct
from repro.workloads.scenarios import ScenarioParams

#: The fixed seed set of every multi-seed study in this repository.
SEEDS = tuple(range(101, 111))

#: A claim's measurement at a seed: (metric, whether it holds, what was measured).
Measure = Callable[[int], tuple[float, bool, str]]


@dataclass(frozen=True)
class Claim:
    """One claim: ``measure(seed)`` returns the seed's metric, whether the
    claim holds on that seed, and a one-line account of what was measured.
    ``file`` names where the claim is stated; ``paper`` is the paper's number."""

    file: str
    text: str
    metric: str
    measure: Measure
    paper: str = ""


def summarise(claims: Sequence[Claim], seeds: Sequence[int]) -> list[int]:
    """Print each claim's metric min / median / max over ``seeds`` and the
    number of seeds on which it holds; return those numbers."""
    is_range = list(seeds) == list(range(seeds[0], seeds[-1] + 1))
    span = f"{seeds[0]}-{seeds[-1]}" if is_range else ",".join(map(str, seeds))
    print(f"seeds {span}; a tie counts against a \"greater\" claim")
    held = []
    for claim in claims:
        values, holds, _ = zip(*(claim.measure(seed) for seed in seeds))
        held.append(sum(holds))
        print(f"{claim.file}: {claim.text}")
        print(
            f"  {claim.metric}: min {min(values):+.3f}  median "
            f"{statistics.median(values):+.3f}  max {max(values):+.3f}  "
            f"holds {held[-1]}/{len(seeds)}",
            flush=True,
        )
    return held


def parse_seeds(text: str) -> tuple[int, ...]:
    """``--seeds``: a comma list (``5,6``) or an inclusive range (``101-110``)."""
    first, dash, last = text.partition("-")
    try:
        seeds = tuple(range(int(first), int(last) + 1) if dash else map(int, text.split(",")))
    except ValueError:
        seeds = ()
    if not seeds or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"not a seed list or range: {text!r}")
    return seeds


def _table2(seed: int) -> tuple[float, bool, str]:
    result = table2(seed=seed)
    jas = result["ic_true"].jas
    exact = (result["ic_true"] == IndexConfiguration(jas, {"A": 1, "B": 1, "C": 2})) + (
        result["ic_csria"] == IndexConfiguration(jas, {"B": 1, "C": 3})
    )
    return exact, exact == 2, f"full→{result['ic_true']!r}, CSRIA→{result['ic_csria']!r}"


#: Claim 1: the Section IV worked example reproduces exactly.
TABLE2 = Claim(
    "validate",
    "Table II worked example (ICs from full vs CSRIA statistics)",
    "ICs equal to the paper's",
    _table2,
    "full→{A:1,B:1,C:2}, CSRIA→{B:1,C:3}",
)

#: Every engine run the claims read: the assessment methods, the seven
#: hash trials and the non-adapting bitmap.
CLAIM_SCHEMES = (
    "amri:sria",
    "amri:dia",
    "amri:cdia-highest",
    *(f"hash:{k}" for k in range(1, 8)),
    "static",
)


def claims(ticks: int = 400, train_ticks: int = 100) -> tuple[Claim, ...]:
    """The five claims at ``ticks``.  A seed's engine claims all read one
    :func:`run_parallel` call over :data:`CLAIM_SCHEMES`: one scenario, one
    shared quasi-training, identical arrivals."""

    @cache
    def runs(seed: int) -> dict[str, RunStats]:
        params = ScenarioParams(seed=seed)
        specs = [RunSpec(params, s, ticks, train_ticks=train_ticks) for s in CLAIM_SCHEMES]
        return {spec.scheme: outcome.stats for spec, outcome in zip(specs, run_parallel(specs))}

    def dia_equals_sria(seed: int) -> tuple[float, bool, str]:
        sria, dia = runs(seed)["amri:sria"], runs(seed)["amri:dia"]
        same = sria.outputs == dia.outputs and [s.outputs for s in sria.samples] == [
            s.outputs for s in dia.samples
        ]
        return dia.outputs - sria.outputs, same, f"SRIA {sria.outputs} vs DIA {dia.outputs}"

    def cdia_beats_sria(seed: int) -> tuple[float, bool, str]:
        cdia, sria = runs(seed)["amri:cdia-highest"].outputs, runs(seed)["amri:sria"].outputs
        pct = improvement_pct(cdia, sria)
        return pct, cdia >= sria, f"CDIA {cdia} vs SRIA {sria} ({pct:+.0f}%)"

    def amri_beats_hash(seed: int) -> tuple[float, bool, str]:
        cdia = runs(seed)["amri:cdia-highest"].outputs
        hash_runs = {k: runs(seed)[f"hash:{k}"] for k in range(1, 8)}
        best_k = max(hash_runs, key=lambda k: hash_runs[k].outputs)
        best = hash_runs[best_k]
        all_fail = all((not r.completed) or r.outputs < cdia * 0.2 for r in hash_runs.values())
        pct = improvement_pct(cdia, best.outputs)
        return (
            pct,
            all_fail and cdia > best.outputs * 1.5,
            f"best hash:{best_k} {best.outputs} (died@{best.died_at}); AMRI {cdia} ({pct:+.0f}%)",
        )

    def amri_beats_static(seed: int) -> tuple[float, bool, str]:
        cdia, static = runs(seed)["amri:cdia-highest"].outputs, runs(seed)["static"].outputs
        pct = improvement_pct(cdia, static)
        return pct, cdia > static * 1.3, f"AMRI {cdia} vs static {static} ({pct:+.0f}%)"

    return (
        TABLE2,
        Claim(
            "validate",
            "DIA == SRIA (same statistics, same run)",
            "DIA minus SRIA outputs",
            dia_equals_sria,
            "exactly equal",
        ),
        Claim(
            "validate",
            "CDIA-highest >= SRIA (combining beats deleting context)",
            "CDIA-highest vs SRIA outputs, %",
            cdia_beats_sria,
            "+19%",
        ),
        Claim(
            "validate",
            "every 1..7-module hash trial dies or collapses; AMRI wins",
            "AMRI vs best hash trial outputs, %",
            amri_beats_hash,
            "all trials OOM; AMRI +93% over the best",
        ),
        Claim(
            "validate",
            "AMRI beats the non-adapting bitmap from the same start",
            "AMRI vs static outputs, %",
            amri_beats_static,
            "+75% (static died at 15.5 of ~20 min)",
        ),
    )


def run_all(checked: Sequence[Claim], seed: int) -> list[tuple[Claim, float, bool, str]]:
    """Every claim measured at ``seed``: (claim, metric, holds, measured)."""
    return [(claim, *claim.measure(seed)) for claim in checked]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=400)
    parser.add_argument(
        "--seeds", type=parse_seeds, default=(7,), help="a comma list (5,6) or a range (101-110)"
    )
    args = parser.parse_args(argv)
    try:  # a bad size is a usage error before any quasi-training
        RunSpec.check(ScenarioParams(), "static", ticks=args.ticks)
    except ValueError as exc:
        parser.error(str(exc))
    checked = claims(args.ticks)
    if len(args.seeds) > 1:
        need = -(-9 * len(args.seeds) // 10)  # ⌈0.9·N⌉
        held = sum(k >= need for k in summarise(checked, args.seeds))
        print(f"\n{held}/{len(checked)} claims hold on ≥ {need} of {len(args.seeds)} seeds")
        return 0 if held == len(checked) else 1
    results = run_all(checked, args.seeds[0])
    rows = [
        ["PASS" if holds else "FAIL", claim.text, measured, claim.paper]
        for claim, _, holds, measured in results
    ]
    print(format_table(["", "claim", "measured", "paper"], rows))
    failed = sum(1 for _, _, holds, _ in results if not holds)
    print(f"\n{len(results) - failed}/{len(results)} claims reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
