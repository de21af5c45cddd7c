#!/usr/bin/env python
"""Gate benchmark regressions on *cost units*, not wall-clock noise.

``python tools/check_bench_regression.py BASELINE.json NEW.json`` compares
the deterministic ``extra_info["cost_units"]`` recorded by
``benchmarks/test_micro_index_ops.py`` (see its module docstring) between
two ``pytest-benchmark --benchmark-json`` exports.  Cost units are the
model: they count model operations, so on identical code the two files
agree exactly, and drift beyond ``--tolerance`` (relative) in *either*
direction exits 1.  A rise means an index hot path got more expensive; a
drop means a probe stopped paying the model's price, which an optimisation
below the accountant must never do.  Only a change to the model itself,
labelled as one, regenerates the baseline.  A baseline row the new run
does not have also exits 1, naming the row: a renamed or deleted benchmark
would otherwise stop being gated without anyone noticing, so its removal
from the baseline is part of the change that removes it.

``--metrics PATH`` additionally writes the comparison as metrics JSONL
(via :mod:`repro.engine.metrics_export`) so CI can upload it as an
artifact alongside the raw benchmark JSON.

Wall clock never gates: CI runners are too noisy for tight timing
thresholds to be trustworthy.  The tool also reads each row's
``stats.median`` and prints one advisory ``WALL`` line per row whose
new/baseline median ratio exceeds the median ratio over all shared rows by
more than ``WALL_ADVISORY`` (25 %).  Measuring each row against the run's
own typical ratio takes the host's speed out: a uniformly slower host
prints nothing, while a row that slowed on its own still does.  That will
not catch a 5 % slowdown, but it does catch an optimisation being
accidentally reverted, which on these paths costs 2x or more.  Rows without
a median are skipped, and the exit code is the cost-unit verdict alone.

The committed baseline is regenerated with the ``bench-regression`` CI
job's pytest command, then stripped of the per-round ``stats.data`` sample
arrays (6.4 MB of them; this tool reads only ``extra_info.cost_units``,
``stats.median`` and ``stats.mean``)::

    PYTHONPATH=src python -m pytest \\
        benchmarks/test_micro_index_ops.py \\
        --benchmark-only --benchmark-disable-gc --benchmark-min-rounds=1 \\
        --benchmark-json=BENCH_micro.json -q
    python -c "import json; d = json.load(open('BENCH_micro.json')); \\
        [b['stats'].pop('data', None) for b in d['benchmarks']]; \\
        json.dump(d, open('BENCH_micro.json', 'w'), indent=4)"
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: A row whose median ratio exceeds the run's median ratio by more than
#: this prints a ``WALL`` line.
WALL_ADVISORY = 0.25


def load_cost_units(path: Path) -> dict[str, float]:
    """Map benchmark name -> recorded cost units (benchmarks lacking the
    ``cost_units`` extra_info — e.g. assessors, which have no accountant —
    are simply not comparable and are skipped)."""
    data = json.loads(path.read_text())
    out: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        cost = bench.get("extra_info", {}).get("cost_units")
        if cost is not None:
            out[bench["name"]] = float(cost)
    return out


def load_stat_seconds(path: Path, stat: str) -> dict[str, float]:
    """Map benchmark name -> one wall-clock ``stats`` field, in seconds
    (rows without it are skipped)."""
    data = json.loads(path.read_text())
    return {
        b["name"]: float(b["stats"][stat])
        for b in data.get("benchmarks", [])
        if stat in b.get("stats", {})
    }


def compare(
    baseline: dict[str, float], new: dict[str, float], tolerance: float
) -> tuple[list[tuple[str, float, float, float]], list[str], list[str]]:
    """Return (regressions, missing, messages).  A regression is ``(name,
    base, new, rel_change)`` with ``|rel_change| > tolerance``; ``missing``
    names the baseline rows the new run lacks.  In-tolerance drift only
    produces messages."""
    regressions: list[tuple[str, float, float, float]] = []
    missing = sorted(set(baseline) - set(new))
    messages: list[str] = []
    for name in sorted(baseline):
        if name in missing:
            continue
        base, cur = baseline[name], new[name]
        rel = (cur - base) / max(abs(base), 1e-12)
        if abs(rel) > tolerance:
            regressions.append((name, base, cur, rel))
        else:
            messages.append(f"OK       {name}: {base:,.2f} -> {cur:,.2f} ({rel:+.1%})")
    for name in sorted(set(new) - set(baseline)):
        messages.append(f"NEW      {name}: {new[name]:,.2f} (no baseline; not gated)")
    return regressions, missing, messages


def wall_advisories(baseline: dict[str, float], new: dict[str, float]) -> list[str]:
    """One ``WALL`` line per row whose median ratio exceeds the median ratio
    over all shared rows (the host's speed) by more than ``WALL_ADVISORY``."""
    ratios = {
        name: new[name] / max(baseline[name], 1e-12)
        for name in sorted(set(baseline) & set(new))
    }
    if not ratios:
        return []
    host = statistics.median(ratios.values())
    lines = []
    for name, ratio in ratios.items():
        rel = ratio / max(host, 1e-12) - 1.0
        if rel > WALL_ADVISORY:
            lines.append(
                f"WALL     {name}: median {baseline[name] * 1e3:,.4f} -> "
                f"{new[name] * 1e3:,.4f} ms ({rel:+.1%} against the run's median "
                f"ratio {host:.2f}x; advisory, not gated)"
            )
    return lines


def write_metrics_jsonl(
    path: Path,
    baseline: dict[str, float],
    new: dict[str, float],
    new_means: dict[str, float],
) -> None:
    """Export the comparison as metrics JSONL: one ``series`` record per
    benchmark and quantity (``repro.engine.metrics_export``'s record
    shape).  No ``aggregate`` record: a comparison has no cost total and
    no series of a run's ledger to count."""
    from repro.engine.metrics_export import write_jsonl

    def series(name: str, kind: str, bench: str, value: float) -> dict[str, object]:
        return {
            "record": "series",
            "name": name,
            "kind": kind,
            "labels": {"bench": bench},
            "value": value,
        }

    records = [series("bench_cost_units", "counter", n, cost) for n, cost in sorted(new.items())]
    records += [
        series("bench_cost_units_baseline", "gauge", n, baseline[n])
        for n in sorted(new)
        if n in baseline
    ]
    # wall-clock mean: context only, not gated
    records += [
        series("bench_mean_seconds", "gauge", n, mean) for n, mean in sorted(new_means.items())
    ]
    write_jsonl(path, records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_micro.json")
    parser.add_argument("new", type=Path, help="fresh --benchmark-json export")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="max tolerated relative cost-unit drift, either way (default 0.05)",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, help="write comparison as metrics JSONL"
    )
    args = parser.parse_args(argv)

    baseline = load_cost_units(args.baseline)
    new = load_cost_units(args.new)
    if not baseline or not new:
        print(
            "no cost-unit series found to compare "
            f"(baseline: {len(baseline)} series, new: {len(new)} series)",
            file=sys.stderr,
        )
        return 1

    regressions, missing, messages = compare(baseline, new, args.tolerance)
    for line in messages:
        print(line)
    for name, base, cur, rel in regressions:
        label = "REGRESSED" if rel > 0 else "DROPPED  "
        print(f"{label} {name}: {base:,.2f} -> {cur:,.2f} ({rel:+.1%})")
    for name in missing:
        print(f"MISSING  {name}: present in baseline, absent in new run")
    for line in wall_advisories(
        load_stat_seconds(args.baseline, "median"), load_stat_seconds(args.new, "median")
    ):
        print(line)

    if args.metrics is not None:
        write_metrics_jsonl(args.metrics, baseline, new, load_stat_seconds(args.new, "mean"))
        print(f"metrics written to {args.metrics}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) drifted beyond "
            f"{args.tolerance:.0%} cost-unit tolerance",
            file=sys.stderr,
        )
    if missing:
        print(
            f"\n{len(missing)} baseline benchmark(s) missing from the new run: "
            + ", ".join(missing),
            file=sys.stderr,
        )
    if regressions or missing:
        return 1
    print(f"\nall {len(new)} comparable benchmarks within {args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
