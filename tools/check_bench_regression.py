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

``--metrics PATH`` additionally writes the comparison as a metrics
snapshot (JSONL, via :mod:`repro.engine.metrics_export`) so CI can upload
it as an artifact alongside the raw benchmark JSON.

Wall-clock stats are reported for context but never gate in this mode: CI
runners are too noisy for tight timing thresholds to be trustworthy.

The committed baseline is regenerated with the ``bench-regression`` CI
job's pytest command, then stripped of the per-round ``stats.data`` sample
arrays (6.4 MB of them; this tool reads only ``extra_info.cost_units`` and
``stats.mean``)::

    PYTHONPATH=src python -m pytest \\
        benchmarks/test_micro_index_ops.py \\
        --benchmark-only --benchmark-disable-gc --benchmark-min-rounds=1 \\
        --benchmark-json=BENCH_micro.json -q
    python -c "import json; d = json.load(open('BENCH_micro.json')); \\
        [b['stats'].pop('data', None) for b in d['benchmarks']]; \\
        json.dump(d, open('BENCH_micro.json', 'w'), indent=4)"

``--wall`` switches both inputs to ``bench-wall/v1`` documents (from
``tools/bench_wall.py``) and compares best-of-N wall seconds on the
**micro paths only** (``bench_wall.MICRO_PATHS`` — insert/probe/migrate
kernels, no experiment-scale runs).  The tolerance is deliberately loose
(default 25%, ``--tolerance`` overrides): it will not catch a 5% slowdown,
but it does catch an optimisation being accidentally reverted — which on
these paths costs 2x+, far outside runner noise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path


def _micro_paths() -> tuple[str, ...]:
    """The gated micro benchmarks, as declared by the wall bench tool."""
    tool = Path(__file__).resolve().parent / "bench_wall.py"
    spec = importlib.util.spec_from_file_location("bench_wall", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MICRO_PATHS


def load_wall_seconds(path: Path, label: str) -> dict[str, float]:
    """Micro-path wall times (in ms, for readable output) from one run
    label of a ``bench-wall/v1`` doc."""
    doc = json.loads(path.read_text())
    if doc.get("schema") != "bench-wall/v1":
        raise SystemExit(f"{path}: not a bench-wall/v1 document")
    runs = doc.get("runs", {})
    if label not in runs:
        raise SystemExit(f"{path}: no run labelled {label!r} (have {sorted(runs)})")
    micro = _micro_paths()
    return {
        name: float(bench["seconds"]) * 1e3
        for name, bench in runs[label]["benchmarks"].items()
        if name in micro
    }


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


def load_mean_seconds(path: Path) -> dict[str, float]:
    data = json.loads(path.read_text())
    return {
        b["name"]: float(b["stats"]["mean"])
        for b in data.get("benchmarks", [])
        if "stats" in b
    }


def compare(
    baseline: dict[str, float], new: dict[str, float], tolerance: float, *, two_sided: bool
) -> tuple[list[tuple[str, float, float, float]], list[str], list[str]]:
    """Return (regressions, missing, messages).  A regression is ``(name,
    base, new, rel_change)`` with ``rel_change > tolerance`` — or,
    ``two_sided``, ``|rel_change| > tolerance``; ``missing`` names the
    baseline rows the new run lacks.  In-tolerance drift (and, one-sided,
    improvements) only produce messages."""
    regressions: list[tuple[str, float, float, float]] = []
    missing = sorted(set(baseline) - set(new))
    messages: list[str] = []
    for name in sorted(baseline):
        if name in missing:
            continue
        base, cur = baseline[name], new[name]
        rel = (cur - base) / max(abs(base), 1e-12)
        if rel > tolerance or (two_sided and rel < -tolerance):
            regressions.append((name, base, cur, rel))
        elif rel < -tolerance:
            messages.append(f"IMPROVED {name}: {base:,.2f} -> {cur:,.2f} ({rel:+.1%})")
        else:
            messages.append(f"OK       {name}: {base:,.2f} -> {cur:,.2f} ({rel:+.1%})")
    for name in sorted(set(new) - set(baseline)):
        messages.append(f"NEW      {name}: {new[name]:,.2f} (no baseline; not gated)")
    return regressions, missing, messages


def write_metrics_jsonl(
    path: Path,
    baseline: dict[str, float],
    new: dict[str, float],
    new_means: dict[str, float],
) -> None:
    """Export the comparison through the repo's own metrics pipeline."""
    from repro.engine.metrics import MetricsRegistry
    from repro.engine.metrics_export import write_metrics

    registry = MetricsRegistry()
    for name, cost in sorted(new.items()):
        registry.counter("bench_cost_units", bench=name).inc(cost)
        base = baseline.get(name)
        if base is not None:
            registry.gauge("bench_cost_units_baseline", bench=name).set(base)
    for name, mean in sorted(new_means.items()):
        # wall-clock mean: context only, not gated
        registry.gauge("bench_mean_seconds", bench=name).set(mean)
    write_metrics(path, registry.snapshot())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_micro.json")
    parser.add_argument("new", type=Path, help="fresh --benchmark-json export")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="max tolerated relative drift, either way (default 0.05); "
        "with --wall, max tolerated increase (default 0.25)",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, help="write comparison as metrics JSONL"
    )
    parser.add_argument(
        "--wall",
        action="store_true",
        help="inputs are bench-wall/v1 docs; gate wall seconds on micro paths",
    )
    parser.add_argument(
        "--baseline-label", default="after", help="run label in the baseline wall doc"
    )
    parser.add_argument(
        "--new-label", default="ci", help="run label in the new wall doc"
    )
    args = parser.parse_args(argv)
    unit = "wall-ms" if args.wall else "cost-unit"
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = 0.25 if args.wall else 0.05

    if args.wall:
        baseline = load_wall_seconds(args.baseline, args.baseline_label)
        new = load_wall_seconds(args.new, args.new_label)
    else:
        baseline = load_cost_units(args.baseline)
        new = load_cost_units(args.new)
    if not baseline or not new:
        print(
            f"no {unit} series found to compare "
            f"(baseline: {len(baseline)} series, new: {len(new)} series)",
            file=sys.stderr,
        )
        return 1

    regressions, missing, messages = compare(baseline, new, tolerance, two_sided=not args.wall)
    for line in messages:
        print(line)
    for name, base, cur, rel in regressions:
        label = "REGRESSED" if rel > 0 else "DROPPED  "
        print(f"{label} {name}: {base:,.2f} -> {cur:,.2f} ({rel:+.1%})")
    for name in missing:
        print(f"MISSING  {name}: present in baseline, absent in new run")

    if args.metrics is not None and not args.wall:
        write_metrics_jsonl(args.metrics, baseline, new, load_mean_seconds(args.new))
        print(f"metrics written to {args.metrics}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) drifted beyond "
            f"{tolerance:.0%} {unit} tolerance",
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
    print(f"\nall {len(new)} comparable benchmarks within {tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
