#!/usr/bin/env python
"""Wall-clock benchmarks of the hot paths, with labelled before/after runs.

The cost-unit benchmarks (``BENCH_micro.json``) gate *model* regressions;
this tool measures what they deliberately ignore — real Python wall-clock —
so hot-path optimisations (compiled probe plans, memoized fragment hashing,
the shared training cache) have committed evidence:

    PYTHONPATH=src python tools/bench_wall.py --label before
    # ...optimise...
    PYTHONPATH=src python tools/bench_wall.py --label after

Each invocation merges its run under ``runs[<label>]`` in the output JSON
(default ``BENCH_wall.json``); whenever both ``before`` and ``after`` are
present a ``speedup`` section (before/after seconds ratio per benchmark) is
recomputed.  Timings are the **minimum** over ``--repeats`` repetitions —
the least-noise estimator for CI-grade wall clocks.  A ``footprint``
section records bytes per instance of the hot dataclasses (measured with
``tracemalloc``), which is how the ``slots=True`` savings are documented.

Benchmarks
----------
- ``bit_index_insert``    — 2 000 inserts into a fresh bit-address index
- ``bit_index_probe``     — 3 000 probes across 1/2/3-attribute patterns
                            (the acceptance "probe micro-benchmark")
- ``multi_hash_probe``    — 3 000 probes against the hash-module baseline
- ``bit_index_migrate``   — 10 full key-map migrations of 2 000 tuples
- ``end_to_end_scenario`` — quasi-training plus a measured AMRI run on the
                            small 3-way paper scenario (the acceptance
                            "end-to-end scenario benchmark")
- ``parallel_training_shared`` — three same-params specs through
                            ``run_parallel(workers=0)``; the shared
                            training cache collapses 3 trainings into 1
- ``probe_plane_serial`` / ``probe_plane_batch64`` — the same Zipf-skewed
                            probe column through per-row ``search`` vs
                            64-row ``search_batch`` calls; their ratio is
                            recorded per label under ``batch_speedup``
                            (the batch data plane's acceptance evidence)
- ``selector_exhaustive`` — 10 ``select_exhaustive`` rounds on each of the
                            two candidate pools the end-to-end workloads
                            search (729 = 9**3 at 8-bit domains, 4 913 =
                            17**3 at 18-bit domains), pools built beforehand
                            as in a running engine — the tuner path
- ``latency_p95``         — 50 000 latency observations through the SLO
                            plane's tracker + per-tick burn-rate monitor,
                            ending in a p95 quantile estimate (the
                            observability plane's per-tuple overhead)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.access_pattern import AccessPattern, JoinAttributeSet  # noqa: E402
from repro.core.bit_index import make_bit_index  # noqa: E402
from repro.core.cost_model import WorkloadStatistics  # noqa: E402
from repro.core.index_config import IndexConfiguration  # noqa: E402
from repro.core.selector import select_exhaustive  # noqa: E402
from repro.indexes.hash_index import MultiHashIndex  # noqa: E402
from repro.utils.bitops import splitmix64  # noqa: E402

JAS = JoinAttributeSet(["A", "B", "C"])
N_ITEMS = 2_000
N_PROBES = 3_000
BATCH_SIZE = 64
ZIPF_S = 2.5
ZIPF_DOMAIN = 256
SELECTOR_BUDGET = 64
SELECTOR_ROUNDS = 10


def make_items(n: int = N_ITEMS) -> list[dict]:
    return [{"A": i % 251, "B": (i * 7) % 239, "C": (i * 13) % 241} for i in range(n)]


def populated_bit_index():
    idx = make_bit_index(JAS, {"A": 8, "B": 8, "C": 8})
    for item in make_items():
        idx.insert(item)
    return idx


def populated_hash_index():
    patterns = [
        AccessPattern.from_attributes(JAS, ["A"]),
        AccessPattern.from_attributes(JAS, ["A", "B"]),
        AccessPattern.from_attributes(JAS, ["B", "C"]),
    ]
    idx = MultiHashIndex(JAS, patterns)
    for item in make_items():
        idx.insert(item)
    return idx


def probe_workload(n: int = N_PROBES) -> list[tuple[AccessPattern, dict]]:
    """A deterministic mixed-width probe sequence (1/2/3 attributes)."""
    patterns = [
        AccessPattern.from_attributes(JAS, ["A"]),
        AccessPattern.from_attributes(JAS, ["A", "B"]),
        AccessPattern.from_attributes(JAS, ["A", "B", "C"]),
    ]
    return [
        (patterns[i % 3], {"A": i % 251, "B": (i * 7) % 239, "C": (i * 13) % 241})
        for i in range(n)
    ]


def zipf_probe_workload(n: int = N_PROBES) -> tuple[AccessPattern, list[tuple]]:
    """``n`` Zipf(s=2)-skewed two-attribute probe rows on one pattern, as
    value tuples aligned with the pattern's attributes ``(A, B)``.

    Stream joins probe hot keys overwhelmingly often; a skewed column is
    where the batch plane's row deduplication pays.  The draw is fully
    deterministic (splitmix64 uniforms through the Zipf CDF), so serial and
    batched runs time the identical row sequence.
    """
    from bisect import bisect_left

    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(ZIPF_DOMAIN)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)

    def draw(i: int) -> int:
        u = splitmix64(i) / 2**64
        return bisect_left(cdf, u)

    ap = AccessPattern.from_attributes(JAS, ["A", "B"])
    rows = [(draw(2 * i), draw(2 * i + 1)) for i in range(n)]
    return ap, rows


# --------------------------------------------------------------------- #
# benchmark bodies (each returns the number of operations it performed)


def bench_bit_index_insert() -> int:
    items = make_items()
    idx = make_bit_index(JAS, {"A": 8, "B": 8, "C": 8})
    for item in items:
        idx.insert(item)
    return len(items)


def bench_bit_index_probe(idx=None) -> int:
    if idx is None:
        idx = populated_bit_index()
    workload = probe_workload()
    for ap, values in workload:
        idx.search(ap, values)
    return len(workload)


def bench_multi_hash_probe(idx=None) -> int:
    if idx is None:
        idx = populated_hash_index()
    workload = probe_workload()
    for ap, values in workload:
        idx.search(ap, values)
    return len(workload)


def bench_probe_plane_serial(idx=None) -> int:
    if idx is None:
        idx = populated_bit_index()
    ap, rows = zipf_probe_workload()
    for a, b in rows:
        idx.search(ap, {"A": a, "B": b})
    return len(rows)


def bench_probe_plane_batch64(idx=None) -> int:
    if idx is None:
        idx = populated_bit_index()
    ap, rows = zipf_probe_workload()
    for start in range(0, len(rows), BATCH_SIZE):
        idx.search_batch(ap, rows[start : start + BATCH_SIZE])
    return len(rows)


def selector_fixture() -> list[WorkloadStatistics]:
    """One round's statistics per pool size, with both pools already built.

    Five frequent patterns (what θ = 0.1 leaves of a drifting route mix)
    at the paper scenario's rate and window; the domain entropy sets the
    pool: 8 bits per attribute caps it at 9**3, 18 bits leaves the
    selector's 16-bit per-attribute cap, 17**3.
    """
    ap = AccessPattern.from_attributes
    frequencies = {
        ap(JAS, ["A"]): 0.3,
        ap(JAS, ["B"]): 0.15,
        ap(JAS, ["A", "B"]): 0.2,
        ap(JAS, ["B", "C"]): 0.15,
        ap(JAS, ["A", "B", "C"]): 0.2,
    }
    fixture = [
        WorkloadStatistics(
            lambda_d=12.0,
            lambda_r=200.0,
            window=20.0,
            frequencies=frequencies,
            domain_bits=dict.fromkeys(JAS.names, domain_bits),
        )
        for domain_bits in (8, 18)
    ]
    for stats in fixture:
        select_exhaustive(stats, JAS, SELECTOR_BUDGET)
    return fixture


def bench_selector_exhaustive(fixture=None) -> int:
    if fixture is None:
        fixture = selector_fixture()
    for stats in fixture:
        for _ in range(SELECTOR_ROUNDS):
            select_exhaustive(stats, JAS, SELECTOR_BUDGET)
    return SELECTOR_ROUNDS * len(fixture)


def bench_latency_p95() -> int:
    from repro.engine.slo import LatencyTracker, SloMonitor, SloSpec

    spec = SloSpec.parse("p95<=8@120")
    tracker = LatencyTracker(threshold=spec.threshold_ticks)
    monitor = SloMonitor(spec)
    n = 50_000
    per_tick = 100
    streams = ("A", "B", "C")
    for i in range(n):
        # Deterministic skewed latencies: mostly fast, a long tail.
        tracker.observe(streams[i % 3], float(splitmix64(i) % 97) / 8.0)
        if i % per_tick == per_tick - 1:
            monitor.end_tick(i // per_tick, tracker)
    tracker.quantile(0.95)
    return n


def bench_bit_index_migrate() -> int:
    idx = populated_bit_index()
    target_a = IndexConfiguration(JAS, {"A": 10, "B": 3})
    target_b = IndexConfiguration(JAS, {"B": 8, "C": 8})
    n = 10
    for i in range(n):
        idx.reconfigure(target_a if i % 2 == 0 else target_b)
    return n


def bench_end_to_end_scenario() -> int:
    from repro.experiments.harness import run_scheme, train_initial_state
    from repro.workloads.scenarios import PaperScenario, scenario_params

    ticks = 60
    scenario = PaperScenario(scenario_params("paper-small", 7))
    training = train_initial_state(scenario, train_ticks=30)
    run_scheme(scenario, "amri:cdia-highest", ticks, training=training)
    return ticks


def bench_parallel_training_shared() -> int:
    from repro.experiments.parallel import RunSpec, run_parallel
    from repro.workloads.scenarios import ScenarioParams

    params = ScenarioParams(seed=5, capacity=1e9, memory_budget=1 << 30)
    specs = [
        RunSpec(params, scheme, 15, train=True, train_ticks=25)
        for scheme in ("amri:sria", "static", "scan")
    ]
    run_parallel(specs, workers=0)
    return len(specs)


BENCHMARKS: dict[str, tuple] = {
    # name -> (setup or None, body); a setup builds state excluded from timing
    "bit_index_insert": (None, bench_bit_index_insert),
    "bit_index_probe": (populated_bit_index, bench_bit_index_probe),
    "multi_hash_probe": (populated_hash_index, bench_multi_hash_probe),
    "probe_plane_serial": (populated_bit_index, bench_probe_plane_serial),
    "probe_plane_batch64": (populated_bit_index, bench_probe_plane_batch64),
    "bit_index_migrate": (None, bench_bit_index_migrate),
    "selector_exhaustive": (selector_fixture, bench_selector_exhaustive),
    "latency_p95": (None, bench_latency_p95),
    "end_to_end_scenario": (None, bench_end_to_end_scenario),
    "parallel_training_shared": (None, bench_parallel_training_shared),
}

#: Benchmarks the regression checker treats as "micro paths".
MICRO_PATHS = (
    "bit_index_insert",
    "bit_index_probe",
    "multi_hash_probe",
    "probe_plane_serial",
    "probe_plane_batch64",
    "bit_index_migrate",
    "selector_exhaustive",
    "latency_p95",
)


def time_benchmark(name: str, repeats: int) -> dict:
    """Best-of-``repeats`` wall seconds for one benchmark."""
    setup, body = BENCHMARKS[name]
    times = []
    ops = 0
    for _ in range(repeats):
        args = (setup(),) if setup is not None else ()
        start = time.perf_counter()
        ops = body(*args)
        times.append(time.perf_counter() - start)
    best = min(times)
    return {
        "seconds": round(best, 6),
        "ops": ops,
        "per_op_us": round(best / max(ops, 1) * 1e6, 3),
        "repeats": repeats,
    }


# --------------------------------------------------------------------- #
# dataclass footprint


def _footprint_samples() -> dict[str, tuple]:
    """(factory, count) per hot dataclass; factories take the instance index
    so every instance is distinct (no interning illusions)."""
    from repro.core.bit_index import MigrationReport
    from repro.engine.kernel.stages import TickState
    from repro.engine.tracing import EngineEvent
    from repro.indexes.base import SearchOutcome

    config = IndexConfiguration(JAS, {"A": 8})

    return {
        "SearchOutcome": (lambda i: SearchOutcome(tuples_examined=i), 20_000),
        "EngineEvent": (lambda i: EngineEvent(tick=i, kind="tune"), 20_000),
        "MigrationReport": (
            lambda i: MigrationReport(config, config, tuples_moved=i, hashes=i),
            20_000,
        ),
        "TickState": (lambda i: TickState(tick=i, duration=1), 20_000),
    }


def measure_footprint() -> dict[str, float]:
    """Traced bytes per instance of each hot dataclass."""
    out: dict[str, float] = {}
    for name, (factory, count) in _footprint_samples().items():
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        instances = [factory(i) for i in range(count)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del instances
        out[name] = round((after - before) / count, 1)
    return out


# --------------------------------------------------------------------- #
# output


def run_all(repeats: int) -> dict:
    benchmarks = {}
    for name in BENCHMARKS:
        benchmarks[name] = time_benchmark(name, repeats)
        print(
            f"{name:28s} {benchmarks[name]['seconds']:9.4f}s "
            f"({benchmarks[name]['per_op_us']:,.1f} us/op)"
        )
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": benchmarks,
        "footprint_bytes_per_instance": measure_footprint(),
    }


def compute_speedups(runs: dict) -> dict:
    """before/after seconds ratios (>1 means after is faster)."""
    if "before" not in runs or "after" not in runs:
        return {}
    before = runs["before"]["benchmarks"]
    after = runs["after"]["benchmarks"]
    return {
        name: round(before[name]["seconds"] / after[name]["seconds"], 2)
        for name in before
        if name in after and after[name]["seconds"] > 0
    }


def compute_batch_speedups(runs: dict) -> dict:
    """Per label: serial/batch64 probe-plane seconds (>1 = batching wins).

    Unlike ``speedup`` this compares two benchmarks *within* one run, so it
    holds machine and code version fixed — the batch plane's acceptance
    ratio, recorded for every label that ran both probe-plane benchmarks.
    """
    out = {}
    for label, run in runs.items():
        marks = run.get("benchmarks", {})
        serial = marks.get("probe_plane_serial", {}).get("seconds")
        batch = marks.get("probe_plane_batch64", {}).get("seconds")
        if serial and batch:
            out[label] = round(serial / batch, 2)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="after", help="run label to record (before/after/ci/...)"
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_wall.json",
        help="JSON file to merge the run into",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="repetitions per benchmark (min is kept)"
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="subset of benchmark names to run (default: all)",
    )
    args = parser.parse_args(argv)

    if args.only:
        unknown = set(args.only) - set(BENCHMARKS)
        if unknown:
            parser.error(f"unknown benchmarks: {sorted(unknown)}")
        for name in list(BENCHMARKS):
            if name not in args.only:
                del BENCHMARKS[name]

    doc = {"schema": "bench-wall/v1", "runs": {}}
    if args.output.exists():
        doc = json.loads(args.output.read_text())
        doc.setdefault("runs", {})

    run = run_all(args.repeats)
    existing = doc["runs"].get(args.label, {})
    if existing.get("benchmarks") and args.only:
        # A partial run refreshes only the benchmarks it executed; any
        # other recorded sections the label already had are preserved.
        existing["benchmarks"].update(run["benchmarks"])
        run["benchmarks"] = existing["benchmarks"]
        for key, value in existing.items():
            run.setdefault(key, value)
    doc["runs"][args.label] = run
    doc["speedup"] = compute_speedups(doc["runs"])
    doc["batch_speedup"] = compute_batch_speedups(doc["runs"])

    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nrecorded run {args.label!r} in {args.output}")
    if doc["speedup"]:
        for name, ratio in sorted(doc["speedup"].items()):
            print(f"speedup {name:28s} {ratio:5.2f}x")
    for label, ratio in sorted(doc["batch_speedup"].items()):
        print(f"batch_speedup[{label}] {ratio:5.2f}x (serial / batch64 probe plane)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
