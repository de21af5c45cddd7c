"""Turning sub-run measurements into named metrics, and comparing result files."""

from __future__ import annotations

import math
import statistics

#: Kernel stages reported by name; any other stage lands in ``other_stages``.
STAGES = (
    "arrivals", "expiry", "route_probe", "faults", "tuning",
    "migration", "slo", "shed_degrade", "audit",
)
STORE_OPS = ("insert", "expire", "probe", "probe_batch", "tune", "migration_step", "crack_step")
INDEX_OPS = ("insert", "remove", "search", "search_batch", "migrate")
INDEX_COUNTS = ("hashes", "comparisons", "buckets_visited", "tuples_examined", "moves")
#: ``(component, phase)`` series of the cost-unit clock reported by name;
#: any other lands in ``cu.other`` so the parts always sum to ``cu.total``.
CU_SERIES = (
    "index.insert", "index.probe", "index.expire", "index.migrate", "index.crack",
    "index.degrade", "router.decide", "output.emit", "filter.admit",
    "tuner.assess", "tuner.migration",
)
#: Metrics on the modeled clock or counted by the program: they repeat
#: exactly on the same commit, seed and sizing.
EXACT_END_TO_END = ("cu_per_tuple",)
#: How far a median may worsen between two results files of the same seed
#: before ``compare`` calls it a regression.  ``BENCHMARK.json``'s bounds
#: must also hold the spread between runs on different seeds, which is
#: several times the spread between runs on one; these need not.
SAME_SEED_BOUNDS = {
    "tuples_per_s": 0.07,
    "tick_ms_p50": 0.07,
    "setup_s": 0.10,
    "peak_rss_mb": 0.05,
    "cu_per_tuple": 0.01,
}
EXACT_PER_LAYER = (
    "kernel.outputs", "kernel.backlog_mean", "kernel.backlog_max", "kernel.backlog_end",
    "router.route_len_mean", "indexes.match_ratio", "indexes.bytes_peak",
    "tuner.rounds", "tuner.migrations", "tuner.accept_ratio", "tuner.tuples_moved",
    "assessment.entries_peak", "cu.total",
    *(f"indexes.{c}" for c in INDEX_COUNTS),
)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(subruns: list[dict]) -> dict[str, float]:
    """Pool the sub-runs of one run into the end-to-end metrics."""
    ticks = sorted(ns for run in subruns for ns in run["tick_ref_ns"])
    wall_s = sum(ticks) / 1e9
    requests = sum(run["requests"] for run in subruns)
    return {
        "tuples_per_s": ratio(requests, wall_s),
        "tick_ms_p50": percentile(ticks, 0.5) / 1e6,
        "setup_s": statistics.median(run["setup_s"] for run in subruns),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in subruns),
        "cu_per_tuple": ratio(sum(run["cu"] for run in subruns), requests),
    }


def per_layer(subruns: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Pool the traced sub-runs into the per-layer metrics."""
    sums: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for run in subruns:
        for name, value in run["layers"]["sums"].items():
            sums[name] = sums.get(name, 0) + value
        for name, value in run["layers"]["peaks"].items():
            peaks[name] = max(peaks.get(name, 0), value)
    get = lambda name: sums.get(name, 0)  # noqa: E731  (absent layer reads 0)
    wall = get("kernel.tick_wall_s")
    out: dict[str, float] = {
        "workloads.gen_s": get("workloads.gen_s"),
        "workloads.gen_share": ratio(get("workloads.gen_s"), get("workloads.gen_s") + wall),
    }
    stage_total = sum(
        value for name, value in sums.items()
        if name.startswith("kernel.") and name.endswith(".busy_s")
    )
    for stage in STAGES:
        out[f"kernel.{stage}.busy_s"] = get(f"kernel.{stage}.busy_s")
    out["kernel.other_stages.busy_s"] = stage_total - sum(out[f"kernel.{s}.busy_s"] for s in STAGES)
    out["kernel.route_probe.self_s"] = get("kernel.route_probe.self_s")
    out["kernel.loop_overhead_s"] = wall - stage_total
    out["kernel.tick_wall_s"] = wall
    out["kernel.tick_ms_p98"] = percentile(
        sorted(ns for run in subruns for ns in run["tick_ns"]), 0.98) / 1e6
    out["kernel.tick_ms_max"] = peaks.get("kernel.tick_ms_max", 0)
    out["kernel.backlog_max"] = peaks.get("kernel.backlog_max", 0)
    out["kernel.backlog_end"] = peaks.get("kernel.backlog_end", 0)
    out["kernel.backlog_mean"] = ratio(get("kernel.backlog_sum"), get("kernel.ticks"))
    out["kernel.outputs"] = get("kernel.outputs")
    out["kernel.outputs_per_s"] = ratio(get("kernel.outputs"), wall)
    out["router.choose_route.calls"] = get("router.choose_route.calls")
    out["router.choose_route.busy_s"] = get("router.choose_route.busy_s")
    out["router.route_len_mean"] = ratio(get("router.route_hops"), get("router.choose_route.calls"))
    for op in STORE_OPS:
        for key in ("calls", "busy_s", "self_s"):
            out[f"storage.{op}.{key}"] = get(f"storage.{op}.{key}")
    out["storage.result_cache_hit_ratio"] = ratio(
        get("result_cache.hits"), get("result_cache.hits") + get("result_cache.misses")
    )
    for op in INDEX_OPS:
        for key in ("calls", "busy_s"):
            out[f"indexes.{op}.{key}"] = get(f"indexes.{op}.{key}")
    for count in INDEX_COUNTS:
        out[f"indexes.{count}"] = get(f"indexes.{count}")
    out["indexes.match_ratio"] = ratio(get("matches"), get("indexes.tuples_examined"))
    out["indexes.bytes_peak"] = peaks.get("indexes.bytes_peak", 0)
    out["indexes.bit_address.calls"] = get("indexes.bit_address.calls")
    for memo, name in (("probe_plan.compile", "probe_plan.compile_hit_ratio"),
                       ("bitops.hash_memo", "bitops.hash_memo_hit_ratio")):
        out[name] = ratio(get(f"{memo}.hits"), get(f"{memo}.hits") + get(f"{memo}.misses"))
    out["bitops.hash_memo_misses"] = get("bitops.hash_memo.misses")
    out["tuner.rounds"] = get("tuner.rounds")
    out["tuner.migrations"] = get("tuner.migrations")
    out["tuner.accept_ratio"] = ratio(get("tuner.migrations"), get("tuner.rounds"))
    out["tuner.busy_s"] = get("tuner.tune.busy_s")
    out["tuner.tuples_moved"] = get("indexes.moves")
    out["assessment.entries_peak"] = peaks.get("assessment.entries_peak", 0)
    out["cu.total"] = get("cu.total")
    for series in CU_SERIES:
        out[f"cu.{series}"] = get(f"cu.{series}")
    parts = math.fsum(v for n, v in sums.items() if n.startswith("cu.") and n != "cu.total")
    out["cu.other"] = parts - sum(out[f"cu.{series}"] for series in CU_SERIES)
    out["host.slowdown"] = ratio(wall, get("kernel.tick_ref_wall_s"))
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.spans"] = get("trace.spans")
    return out


def cu_parts_reconcile(values: dict[str, float]) -> bool:
    """The per-(component, phase) charges regroup the same floats the total
    adds in order, so they agree up to float associativity, not bit for bit."""
    parts = math.fsum(v for n, v in values.items() if n.startswith("cu.") and n != "cu.total")
    return math.isclose(parts, values["cu.total"], rel_tol=1e-9, abs_tol=1e-6)


# --------------------------------------------------------------------- #
# summaries and comparison


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count of one metric's repeats."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(s: dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    return ratio(s["q3"] - s["q1"], abs(s["median"]))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One (workload, metric) row: medians, ratio with its base, status.

    ``regressed`` when the change's median is worse than the base's by more
    than the bound; otherwise ``unresolved`` when either side's spread is
    wider than the bound (unless every run of the change reads better than
    every run of the base); otherwise ``ok``.
    """
    a, b = summary(base), summary(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * ratio(b["median"] - a["median"], abs(a["median"]))
    if worse_by > bound:
        status = "regressed"
    elif max(spread(a), spread(b)) > bound:
        all_better = (
            max(change) < min(base) if better == "lower" else min(change) > max(base)
        )
        status = "ok" if all_better else "unresolved"
    else:
        status = "ok"
    return {
        "base": a, "change": b, "ratio": ratio(b["median"], a["median"]),
        "worse_by": worse_by, "bound": bound, "status": status,
    }


def compare(a: dict, b: dict, contract: dict) -> tuple[list[dict], list[str]]:
    """Rows for every (workload, end-to-end metric) of two result files of
    one seed, and the names of exact quantities that differ between them."""
    rows = []
    differs = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            row = verdict(
                [run["metrics"][key]["value"] for run in wa["untraced"]],
                [run["metrics"][key]["value"] for run in wb["untraced"]],
                metric["better"], SAME_SEED_BOUNDS[key],
            )
            rows.append({"workload": name, "metric": key, "unit": metric["unit"], **row})
        if wa["fingerprint_sha256"] != wb["fingerprint_sha256"]:
            differs.append(f"{name}: fingerprint_sha256")
        for key in EXACT_END_TO_END:
            if wa["untraced"][0]["metrics"][key] != wb["untraced"][0]["metrics"][key]:
                differs.append(f"{name}: {key}")
        ta, tb = wa.get("traced"), wb.get("traced")
        if ta and tb:
            for key in EXACT_PER_LAYER:
                if ta["metrics"][key] != tb["metrics"][key]:
                    differs.append(f"{name}: {key}")
    return rows, differs


def format_compare(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<14} {'unit':<5} {'base median [q1, q3] n':<40} "
        f"{'change median [q1, q3] n':<40} {'change/base':>11} {'bound':>6}  status"
    ]
    for r in rows:
        side = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"  # noqa: E731
        lines.append(
            f"{r['workload']:<14} {r['metric']:<14} {r['unit']:<5} {side(r['base']):<40} "
            f"{side(r['change']):<40} {r['ratio']:>11.4f} {r['bound']:>6.2f}  {r['status']}"
        )
    return "\n".join(lines)
