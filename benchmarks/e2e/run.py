"""The benchmark's command line.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as ``BENCHMARK.json`` names it: the last line
    of standard output is ``{"correct", "attempted", "failed", "metrics"}``
    with the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).

``python -m benchmarks.e2e run [--seed 7] [--modes] ...``
    Every workload: repeated untraced runs, one traced run, the correctness
    gate, every metric printed by name with its unit, a results file.

``python -m benchmarks.e2e compare A.json B.json``
    Two results files, one row per (workload, end-to-end metric).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

if __package__:
    from . import report, workloads
else:  # run as a script: this directory is sys.path[0]
    import report
    import workloads

ROOT = workloads.ROOT
CHILD = Path(__file__).resolve().with_name("child.py")
OUT_DIR = ROOT / ".bench_e2e"
CHILD_TIMEOUT_S = 170

#: The informational engine-option sweep, in the order cells are dropped
#: when time is short.  ``harness`` names a ``repro.experiments.harness``
#: function; every other key is a ``make_executor`` option.
MODE_CELLS = (
    ("default", {}),
    ("batch64", {"batch_size": 64}),
    ("lazy", {"lazy_index": True}),
    ("workers2", {"batch_size": 64, "probe_workers": 2}),
    ("partitions2", {"harness": "run_scheme_partitioned", "partitions": 2}),
    ("fleet2", {"harness": "run_scheme_fleet", "fleet": 2}),
)


class CheckFailed(Exception):
    """A child process did not produce a result."""


def child(spec: dict) -> dict:
    """Run one measurement in its own process and return its result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"child still running after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise CheckFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spec_for(workload, sub_seed: int, ticks: int, *, scale: float, engine_opts: dict) -> dict:
    """A child's inputs.  ``scale`` < 1 (smoke runs) also shrinks training
    and warm-up, which would otherwise be all a scaled run does."""
    shrink = min(scale * 4, 1.0)
    return {
        "kind": "measure",
        "scheme": workload.scheme,
        "params": {**workload.params, "seed": sub_seed},
        "train_ticks": max(10, round(workloads.TRAIN_TICKS * shrink)),
        "warmup": max(5, round(workloads.WARMUP_TICKS * shrink)),
        "ticks": ticks,
        "engine_opts": engine_opts,
    }


def one_run(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    engine_opts: dict | None = None,
    reference: dict | None = None,
) -> dict:
    """One run of one workload: ``SUBRUNS`` children, pooled and checked.

    Returns the contract's ``{"correct", "attempted", "failed", "metrics"}``
    plus ``checks`` (name -> passed), ``fingerprint_sha256`` and the timed
    wall as the clock gave it and at reference speed (one of each per
    sub-seed).  A traced run needs an untraced one to measure its overhead
    against and to prove it left the virtual clock alone: ``reference`` is
    an earlier untraced result of the same inputs, or ``None`` to measure
    the first sub-seed untraced here.
    """
    contract = workloads.load_contract()
    ticks = workload.timed_ticks(seconds, scale)
    oracle_ticks = max(5, round(workload.oracle_ticks * min(scale * 4, 1.0)))
    specs = [
        spec_for(workload, s, ticks, scale=scale, engine_opts=engine_opts or {})
        for s in workloads.sub_seeds(seed)
    ]
    checks: dict[str, bool] = {}
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{workload.name}.jsonl"
        trace_path.write_text("")
        if reference is None:
            first = child({**specs[0], "oracle_ticks": oracle_ticks})
            checks["oracle_matches_scan"] = first["oracle"]["ok"]
            reference = {
                "fingerprint_sha256": [first["fingerprint_sha256"]],
                "ref_wall_s": [ref_wall_s(first)],
            }
        subruns = [child({**s, "trace": True, "trace_path": str(trace_path)}) for s in specs]
        # Traced against untraced on the same sub-seeds, both at reference
        # speed, or the host's mood at the two moments would be the ratio.
        pairs = list(zip(map(ref_wall_s, subruns), reference["ref_wall_s"]))
        overhead = report.ratio(sum(t for t, _ in pairs), sum(u for _, u in pairs))
        values = report.per_layer(subruns, overhead)
        kinds = contract["per_layer"]
        checks["traced_fingerprint_equals_untraced"] = all(
            run["fingerprint_sha256"] == ref
            for run, ref in zip(subruns, reference["fingerprint_sha256"])
        )
        checks["cu_total_equals_meter"] = all(run["layers"]["cu_exact"] for run in subruns)
        checks["cu_parts_sum_to_total"] = report.cu_parts_reconcile(values)
        if not workload.scheme.startswith("amri:"):
            checks["bit_address_untouched"] = values["indexes.bit_address.calls"] == 0
    else:
        subruns = [child({**specs[0], "oracle_ticks": oracle_ticks})]
        subruns += [child(s) for s in specs[1:]]
        checks["oracle_matches_scan"] = subruns[0]["oracle"]["ok"]
        values = report.end_to_end(subruns)
        kinds = contract["end_to_end"]
    checks["completed"] = all(run["died_at"] is None for run in subruns)
    if workload.name == "sparse_ingest":
        # Disjoint value domains: nothing ever joins, and uncapped capacity
        # routes every request in its own tick.
        checks["no_results_no_backlog"] = all(
            run["outputs"] == 0 and run["backlog_end"] == 0 for run in subruns
        )
    return {
        "correct": all(checks.values()),
        "attempted": sum(run["attempted"] for run in subruns),
        "failed": sum(run["failed"] for run in subruns),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in kinds
        },
        "checks": checks,
        "fingerprint_sha256": [run["fingerprint_sha256"] for run in subruns],
        "raw_wall_s": [sum(run["tick_ns"]) / 1e9 for run in subruns],
        "ref_wall_s": [ref_wall_s(run) for run in subruns],
    }


def ref_wall_s(subrun: dict) -> float:
    """A sub-run's timed wall at reference speed."""
    return sum(subrun["tick_ref_ns"]) / 1e9


def report_failures(name: str, result: dict) -> None:
    for check, passed in result["checks"].items():
        if not passed:
            print(f"CHECK FAILED {name}: {check}", file=sys.stderr)


# --------------------------------------------------------------------- #
# the BENCHMARK.json command


def main_single(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = one_run(
        workloads.BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    report_failures(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------- #
# run: every workload, repeated runs, traced run, gate, results file


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min": os.getloadavg()[0],
    }


def parse_engine_opts(pairs: list[str]) -> dict:
    opts = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"--engine-opt wants key=value, got {pair!r}")
        try:
            opts[key] = json.loads(raw)
        except json.JSONDecodeError:
            opts[key] = raw
    return opts


def mode_sweep(seed: int, seconds: float, scale: float) -> dict:
    """``paper_drift`` once per engine option the engine still offers.

    Informational: a cell that fails or runs out of time is recorded with
    its ``error`` and the sweep goes on.
    """
    workload = workloads.BY_NAME["paper_drift"]
    ticks = workload.timed_ticks(seconds, scale) * workloads.SUBRUNS
    base = spec_for(workload, workloads.sub_seeds(seed)[0], ticks, scale=scale, engine_opts={})
    cells: dict[str, dict] = {}
    for name, opts in MODE_CELLS:
        try:
            cell = child({**base, "kind": "mode", "cell_opts": opts})
        except CheckFailed as failure:
            cells[name] = {"absent": False, "error": str(failure)}
            continue
        if not cell["absent"]:
            cell["tuples_per_s"] = report.ratio(cell["requests"], cell["wall_s"])
            default = cells.get("default", cell)
            if "tuples_per_s" in default:
                cell["vs_default"] = report.ratio(cell["tuples_per_s"], default["tuples_per_s"])
                cell["same_fingerprint"] = (
                    cell["fingerprint_sha256"] == default["fingerprint_sha256"]
                )
        cells[name] = cell
    return cells


def print_modes(cells: dict) -> None:
    print("\n== engine-option sweep on paper_drift (informational, never gates)")
    for name, cell in cells.items():
        if cell["absent"]:
            print(f"  modes.{name}: absent")
        elif "error" in cell:
            print(f"  modes.{name}: error: {cell['error'].strip().splitlines()[-1]}")
        else:
            line = f"  modes.{name}.tuples_per_s {cell['tuples_per_s']:>12.6g} 1/s"
            if "vs_default" in cell:
                line += (f"   modes.{name}.vs_default {cell['vs_default']:.4f} ratio   fingerprint "
                         + ("same" if cell["same_fingerprint"] else "differs"))
            print(line)


def print_run(name: str, entry: dict, contract: dict) -> None:
    print(f"\n== {name}  correct={entry['correct']}  "
          f"attempted={entry['attempted']}  failed={entry['failed']}")
    for metric in contract["end_to_end"]:
        key = metric["name"]
        s = report.summary([run["metrics"][key]["value"] for run in entry["untraced"]])
        print(f"  {key:<34} {s['median']:>14.6g} {metric['unit']:<6} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    print("  timed wall of each repeat, as clocked / at reference speed: " + "  ".join(
        f"{sum(run['raw_wall_s']):.2f} / {sum(run['ref_wall_s']):.2f} s"
        for run in entry["untraced"]
    ))
    values = {k: v["value"] for k, v in entry["traced"]["metrics"].items()}
    for metric in contract["per_layer"]:
        print(f"  {metric['name']:<34} {values[metric['name']]:>14.6g} {metric['unit']}")
    wall = values["kernel.tick_wall_s"]
    shares = "  ".join(
        f"{stage} {100 * report.ratio(values[f'kernel.{stage}.busy_s'], wall):.1f}%"
        for stage in report.STAGES
    )
    print(f"  wall shares: {shares}  "
          f"loop {100 * report.ratio(values['kernel.loop_overhead_s'], wall):.1f}%")
    shares = "  ".join(
        f"{series} {100 * report.ratio(values[f'cu.{series}'], values['cu.total']):.1f}%"
        for series in report.CU_SERIES if values[f"cu.{series}"]
    )
    print(f"  cost-unit shares: {shares}")


def main_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink tick counts, training and oracle prefix, and make "
                             "one repeat instead of three (smoke runs)")
    parser.add_argument("--modes", action="store_true",
                        help="also sweep the engine options on paper_drift (informational)")
    parser.add_argument("--engine-opt", action="append", default=[], metavar="KEY=VALUE",
                        help="ad-hoc make_executor option; marks the results file as not default")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    contract = workloads.load_contract()
    seconds = contract["run_seconds"]
    repeats = workloads.REPEATS if args.scale >= 1 else 1
    engine_opts = parse_engine_opts(args.engine_opt)
    results = {
        "seed": args.seed, "scale": args.scale,
        "engine_opts": engine_opts, "environment": environment(), "workloads": {},
    }
    print(json.dumps(results["environment"]))
    ok = True
    for name, workload in workloads.BY_NAME.items():
        kwargs = {"scale": args.scale, "engine_opts": engine_opts}
        untraced = [one_run(workload, args.seed, seconds, False, **kwargs)
                    for _ in range(repeats)]
        traced = one_run(workload, args.seed, seconds, True, reference=untraced[0], **kwargs)
        checks = {
            "fingerprints_repeat": all(
                run["fingerprint_sha256"] == untraced[0]["fingerprint_sha256"] for run in untraced
            ),
            "exact_metrics_repeat": all(
                run["metrics"][key] == untraced[0]["metrics"][key]
                for run in untraced for key in report.EXACT_END_TO_END
            ),
        }
        entry = {
            "correct": all(checks.values()) and all(r["correct"] for r in [*untraced, traced]),
            "attempted": untraced[0]["attempted"],
            "failed": max(run["failed"] for run in untraced),
            "checks": checks,
            "fingerprint_sha256": untraced[0]["fingerprint_sha256"],
            "untraced": untraced,
            "traced": traced,
        }
        results["workloads"][name] = entry
        print_run(name, entry, contract)
        report_failures(name, entry)
        for run in [*untraced, traced]:
            report_failures(name, run)
        ok = ok and entry["correct"]
    out = args.out
    if out is None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"results_seed{args.seed}.json"
    out.write_text(json.dumps(results, indent=1))
    if args.modes:
        # After the results are safe on disk, and never part of the exit code.
        results["modes"] = mode_sweep(args.seed, seconds, args.scale)
        print_modes(results["modes"])
        out.write_text(json.dumps(results, indent=1))
    print(f"\nresults: {out}")
    return 0 if ok else 1


def main_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--require-identical", action="store_true",
                        help="also fail when an exact (modeled-clock) quantity differs, "
                             "as two runs of one commit must not")
    args = parser.parse_args(argv)
    a, b = json.loads(args.base.read_text()), json.loads(args.change.read_text())
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            print(f"{key} differs ({a[key]!r} vs {b[key]!r}): the two files ran different "
                  "inputs, which the same-seed bounds do not cover", file=sys.stderr)
            return 2
    if a["engine_opts"] != b["engine_opts"]:
        print(f"note: engine_opts differ ({a['engine_opts']!r} vs {b['engine_opts']!r})",
              file=sys.stderr)
    rows, differs = report.compare(a, b, workloads.load_contract())
    print(report.format_compare(rows))
    print("exact quantities: " + ("identical" if not differs else "differ: " + "; ".join(differs)))
    regressed = any(row["status"] == "regressed" for row in rows)
    return 1 if regressed or (args.require_identical and differs) else 0


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    commands = {"run": main_run, "compare": main_compare}
    command = commands.get(argv[0]) if argv else None
    try:
        return main_single(argv) if command is None else command(argv[1:])
    except CheckFailed as failure:
        print(failure, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
