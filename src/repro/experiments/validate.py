"""Reproduction self-check: re-verify the paper's headline claims.

``python -m repro.experiments.validate`` runs each claim of the evaluation
section at a configurable scale and prints a PASS/FAIL table:

1. **Table II** — the worked example's index selections are exact:
   full statistics → ``{A:1,B:1,C:2}``; CSRIA-truncated → ``{B:1,C:3}``.
2. **DIA == SRIA** — identical statistics ⇒ identical runs (Figure 6 note).
3. **CDIA ≥ SRIA** — combining statistics beats thresholding them away
   (Figure 6's +19%; checked as ≥ at reduced scale).
4. **AMRI vs hash trials** — every 1..7-module trial dies or flatlines and
   AMRI out-produces the best of them (Figure 6/7; paper: +93%).
5. **AMRI vs static bitmap** — tuning beats the same starting configuration
   frozen (Figure 7; paper: +75%).

The check is honest about scale: thresholds are set well below the paper's
reported percentages so seed noise at reduced tick counts does not flap,
while still requiring the right *winner* in every comparison.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.core.index_config import IndexConfiguration
from repro.experiments.figures import table2
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.reporting import format_table, improvement_pct
from repro.workloads.scenarios import ScenarioParams


@dataclass
class ClaimResult:
    """Outcome of one checked claim."""

    claim: str
    passed: bool
    measured: str
    paper: str


def check_table2() -> ClaimResult:
    """Claim 1: the Section IV worked example reproduces exactly."""
    result = table2()
    jas = result["ic_true"].jas
    ok = result["ic_true"] == IndexConfiguration(jas, {"A": 1, "B": 1, "C": 2}) and result[
        "ic_csria"
    ] == IndexConfiguration(jas, {"B": 1, "C": 3})
    return ClaimResult(
        claim="Table II worked example (ICs from full vs CSRIA statistics)",
        passed=ok,
        measured=f"full→{result['ic_true']!r}, CSRIA→{result['ic_csria']!r}",
        paper="full→{A:1,B:1,C:2}, CSRIA→{B:1,C:3}",
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


def claim_specs(ticks: int = 400, seed: int = 7, train_ticks: int = 100) -> dict[str, RunSpec]:
    """Scheme → spec for every engine claim: one scenario, one shared
    quasi-training, identical arrivals.  Building them validates every
    size and name before anything trains."""
    params = ScenarioParams(seed=seed)
    return {
        scheme: RunSpec(params, scheme, ticks, train_ticks=train_ticks)
        for scheme in CLAIM_SCHEMES
    }


def run_all(specs: dict[str, RunSpec]) -> list[ClaimResult]:
    """Run every claim check over :func:`claim_specs`' runs."""
    results = [check_table2()]
    runs = {scheme: execute_spec(spec).stats for scheme, spec in specs.items()}

    sria, dia, cdia = runs["amri:sria"], runs["amri:dia"], runs["amri:cdia-highest"]
    results.append(
        ClaimResult(
            claim="DIA == SRIA (same statistics, same run)",
            passed=sria.outputs == dia.outputs
            and [s.outputs for s in sria.samples] == [s.outputs for s in dia.samples],
            measured=f"SRIA {sria.outputs} vs DIA {dia.outputs}",
            paper="exactly equal",
        )
    )
    results.append(
        ClaimResult(
            claim="CDIA-highest >= SRIA (combining beats deleting context)",
            passed=cdia.outputs >= sria.outputs,
            measured=f"CDIA {cdia.outputs} vs SRIA {sria.outputs} "
            f"(+{improvement_pct(cdia.outputs, sria.outputs):.0f}%)",
            paper="+19%",
        )
    )

    hash_runs = {k: runs[f"hash:{k}"] for k in range(1, 8)}
    best_k = max(hash_runs, key=lambda k: hash_runs[k].outputs)
    best = hash_runs[best_k]
    all_fail = all(
        (not r.completed) or r.outputs < cdia.outputs * 0.2 for r in hash_runs.values()
    )
    results.append(
        ClaimResult(
            claim="every 1..7-module hash trial dies or collapses; AMRI wins",
            passed=all_fail and cdia.outputs > best.outputs * 1.5,
            measured=(
                f"best hash:{best_k} {best.outputs} (died@{best.died_at}); "
                f"AMRI {cdia.outputs} (+{improvement_pct(cdia.outputs, best.outputs):.0f}%)"
            ),
            paper="all trials OOM; AMRI +93% over the best",
        )
    )

    static = runs["static"]
    results.append(
        ClaimResult(
            claim="AMRI beats the non-adapting bitmap from the same start",
            passed=cdia.outputs > static.outputs * 1.3,
            measured=f"AMRI {cdia.outputs} vs static {static.outputs} "
            f"(+{improvement_pct(cdia.outputs, static.outputs):.0f}%)",
            paper="+75% (static died at 15.5 of ~20 min)",
        )
    )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=400)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    try:  # a bad size is a usage error before any quasi-training
        specs = claim_specs(ticks=args.ticks, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    results = run_all(specs)
    rows = [
        ["PASS" if r.passed else "FAIL", r.claim, r.measured, r.paper] for r in results
    ]
    print(format_table(["", "claim", "measured", "paper"], rows))
    failed = sum(1 for r in results if not r.passed)
    print(f"\n{len(results) - failed}/{len(results)} claims reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
