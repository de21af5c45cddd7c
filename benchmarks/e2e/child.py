"""One measurement in one process: ``python child.py '<json spec>'``.

Every (workload, sub-seed) measurement runs in its own sequentially
launched process, so ``ru_maxrss`` is that run's own peak and the
process-wide ``lru_cache``s start cold, as they do for a ``repro run``
user.  The last line of standard output is one JSON object.

``kind``:

- ``measure`` — set-up, then ``executor.run`` with stamped arrivals
  (optionally traced), then the scan-oracle check when asked for;
- ``mode`` — one cell of the informational engine-option sweep.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up includes importing the engine

import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from layertrace import Tracer  # noqa: E402  (this directory: sys.path[0] of a script)
from repro.experiments import harness  # noqa: E402
from repro.experiments.golden import stats_fingerprint  # noqa: E402
from repro.workloads.scenarios import PaperScenario, ScenarioParams  # noqa: E402

ACCOUNTANT_COUNTS = ("hashes", "comparisons", "buckets_visited", "tuples_examined", "moves")
#: What ``host_speed_ns`` reads on the reference box (2 cores, CPython 3.11)
#: while nothing else competes for the core: the 5th percentile of a quiet
#: run's readings there (234-243 us over sixty runs).  Wall times are
#: reported at this speed; change the loop and this number together, or not
#: at all.
REFERENCE_READING_NS = 240_000


def host_speed_ns() -> int:
    """One reading of how fast the host runs this process right now: a
    fixed pure-Python loop, timed (about a quarter of a millisecond)."""
    counts: dict[int, int] = {}
    get = counts.get
    start = perf_counter_ns()
    for i in range(3000):
        key = i & 63
        counts[key] = get(key, 0) + i
    return perf_counter_ns() - start


def host_speed_burst() -> list[int]:
    """Readings in a row, for set-up: its steps are few and seconds long,
    so each gap between them is sampled for longer."""
    return [host_speed_ns() for _ in range(8)]


def at_reference_speed(wall: float, readings: list[int]) -> float:
    """``wall`` as it would read on the undisturbed reference box, given
    the host-speed readings taken around it."""
    return wall * REFERENCE_READING_NS * len(readings) / sum(readings)


def trained(spec: dict):
    """The spec's scenario and its quasi-training result."""
    scenario = PaperScenario(ScenarioParams(**spec["params"]))
    return scenario, harness.train_initial_state(scenario, train_ticks=spec["train_ticks"])


def make_executor(scenario, training, spec: dict, **overrides):
    """The default engine for the spec's scheme, from its trained start."""
    scheme = spec["scheme"]
    hash_patterns = None
    if scheme.startswith("hash:"):
        hash_patterns = training.hash_patterns(int(scheme.split(":", 1)[1]))
    return scenario.make_executor(
        scheme,
        initial_configs=training.configs,
        initial_hash_patterns=hash_patterns,
        **{**spec.get("engine_opts", {}), **overrides},
    )


def fingerprint(stats) -> str:
    blob = json.dumps(stats_fingerprint(stats), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def routed(stats, backlog: int) -> int:
    """Search requests fully routed so far."""
    return stats.source_tuples - backlog - stats.shed_tuples


class StampedArrivals:
    """The arrivals callable, stamping entry and exit of every call.

    Tick *t* runs between the exit of ``arrivals(t)`` and the entry of
    ``arrivals(t+1)``, so the stamps time each tick with the generator
    excluded, using nothing but ``executor.run(duration, arrivals)``.
    The hooks (``on_warm()`` on entering tick ``warmup``, ``on_tick()`` on
    every tick) and one host-speed reading per call run between the entry
    stamp and the generator's own timing and are charged to neither.
    """

    def __init__(self, generator, warmup: int, on_warm, on_tick=None) -> None:
        self.generator = generator
        self.warmup = warmup
        self.on_warm = on_warm
        self.on_tick = on_tick
        self.entries: list[int] = []
        self.exits: list[int] = []
        self.gen_ns: list[int] = []
        self.readings: list[int] = []  # readings[t] is taken just before tick t
        self.delivered = 0

    def __call__(self, t: int):
        self.entries.append(perf_counter_ns())
        if t == self.warmup:
            self.on_warm()
        if self.on_tick is not None:
            self.on_tick()
        self.readings.append(host_speed_ns())
        start = perf_counter_ns()
        items = self.generator(t)
        end = perf_counter_ns()
        self.gen_ns.append(end - start)
        self.exits.append(end)
        self.delivered += len(items)
        return items

    def tick_walls(self, run_end: int) -> list[int]:
        """Wall nanoseconds of every tick that ran."""
        ends = self.entries[1:] + [run_end]
        return [end - start for start, end in zip(self.exits, ends)]

    def reference_walls(self, walls: list[int]) -> list[float]:
        """``walls`` at reference speed, each tick by the readings taken
        just before and just after it (one more than there are ticks)."""
        return [
            at_reference_speed(wall, self.readings[t:t + 2]) for t, wall in enumerate(walls)
        ]


def timed_run(scenario, executor, spec: dict, *, trace: bool) -> dict:
    """One ``executor.run`` over fresh arrivals, stamped (and traced)."""
    warmup, ticks = spec["warmup"], spec["ticks"]
    duration = warmup + ticks
    stats, meter = executor.stats, executor.meter
    warm: dict = {}
    layers = LayerProbe(executor) if trace else None

    def end_of_warmup() -> None:
        warm["routed"] = routed(stats, executor.backlog)
        warm["outputs"] = stats.outputs
        warm["spent"] = meter.total_spent
        if layers is not None:
            layers.end_of_warmup()

    arrivals = StampedArrivals(
        scenario.make_generator(), warmup, end_of_warmup, layers.sample if trace else None
    )
    executor.run(duration, arrivals)
    walls = arrivals.tick_walls(perf_counter_ns())
    arrivals.readings.append(host_speed_ns())

    ran = len(walls)
    backlogs = [s.backlog for s in stats.samples[warmup:]]
    scheduled = scenario.params.rate * len(scenario.params.stream_names) * duration
    lost = 0
    if stats.died_at is not None:
        lost = executor.backlog + scheduled - arrivals.delivered
    out = {
        "tick_ns": walls[warmup:],
        "tick_ref_ns": arrivals.reference_walls(walls)[warmup:],
        "gen_ns": sum(arrivals.gen_ns[warmup:]),
        "requests": routed(stats, executor.backlog) - warm.get("routed", 0),
        "outputs": stats.outputs - warm.get("outputs", 0),
        "cu": meter.total_spent - warm.get("spent", 0.0),
        "backlog_sum": sum(backlogs),
        "backlog_max": max(backlogs, default=0),
        "backlog_end": executor.backlog,
        "attempted": scheduled,
        "failed": stats.shed_tuples + lost,
        "died_at": stats.died_at,
        "fingerprint_sha256": fingerprint(stats),
    }
    if trace:
        tick_spans = [
            (t, arrivals.exits[t], arrivals.exits[t] + walls[t]) for t in range(warmup, ran)
        ]
        out["layers"] = layers.read(out, tick_spans, spec)
    return out


def measure(spec: dict) -> dict:
    """Set-up, the timed run, the oracle check.

    The host shares its cores: its speed drops by tens of percent for
    seconds at a time, more than any bound this benchmark sets.  A fixed
    loop (``host_speed_ns``) is therefore timed between every two ticks and
    between the steps of set-up, and every wall time is reported at the
    reference speed: divided by how much slower than ``REFERENCE_READING_NS``
    the loop read around it.  The walls as the clock gave them stay in
    ``tick_ns`` and ``raw_setup_s``.
    """
    readings = host_speed_burst()
    scenario, training = trained(spec)
    readings += host_speed_burst()
    executor = make_executor(scenario, training, spec)
    setup_s = time.perf_counter() - _PROCESS_START
    readings += host_speed_burst()
    out = timed_run(scenario, executor, spec, trace=bool(spec.get("trace")))
    out["raw_setup_s"] = setup_s
    out["setup_s"] = at_reference_speed(setup_s, readings)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spec.get("oracle_ticks"):
        out["oracle"] = oracle(scenario, training, spec)
    return out


def oracle(scenario, training, spec: dict) -> dict:
    """Same multiset of join results as the scan scheme, on an uncapped prefix."""

    def results_of(scheme_spec: dict) -> Counter:
        seen: Counter = Counter()

        def sink(partials) -> None:
            for joined in partials:
                seen[
                    tuple(sorted(
                        (s.stream, s.arrived_at, tuple(sorted(s.items()))) for s in joined.sources
                    ))
                ] += 1

        executor = make_executor(
            scenario, training, scheme_spec,
            capacity=1e12, memory_budget=1 << 40, output_sink=sink,
        )
        executor.run(spec["oracle_ticks"], scenario.make_generator())
        return seen

    mine = results_of(spec)
    scan = results_of({"scheme": "scan"})
    return {"ok": mine == scan, "results": sum(mine.values()), "scan_results": sum(scan.values())}


class LayerProbe:
    """The traced pass: the tracer plus the counters read at layer boundaries."""

    def __init__(self, executor) -> None:
        self.executor = executor
        self.tracer = Tracer()
        self.tracer.install(executor)
        # The cost-unit clock, by (component, phase).  EngineContext.spend is
        # the one place the kernel charges the meter; shadowing it costs a
        # dict add per charge, where attaching a MetricsRegistry made the
        # traced run 1.6x slower and so bent the wall shares it reports.
        self.cu: dict[tuple[str, str], float] = {}
        self.cu_total = executor.meter.total_spent
        ctx = executor.context
        spend = ctx.spend

        def spend_attributed(cost, component, *, stream=None, index_kind=None, phase=None):
            self.cu_total += cost  # the meter's own additions, in its order
            key = (component, phase)
            self.cu[key] = self.cu.get(key, 0.0) + cost
            spend(cost, component, stream=stream, index_kind=index_kind, phase=phase)

        ctx.spend = spend_attributed
        self.index_bytes_peak = 0
        self.assessment_entries_peak = 0
        self.warm: dict = {}

    def sample(self) -> None:
        index_bytes = entries = 0
        for stem in self.executor.stems.values():
            index_bytes += stem.index.memory_bytes
            assessor = getattr(stem.tuner, "assessor", None)
            if assessor is not None:
                entries += assessor.entry_count
        self.index_bytes_peak = max(self.index_bytes_peak, index_bytes)
        self.assessment_entries_peak = max(self.assessment_entries_peak, entries)

    def counters(self) -> dict:
        """Every cumulative count the layers expose, as one flat dict."""
        stats = self.executor.stats
        out = {
            "matches": stats.matches,
            "tuner.rounds": stats.tuning_rounds,
            "tuner.migrations": stats.migrations,
            "cu.total": self.cu_total,
        }
        for (component, phase), value in self.cu.items():
            out[f"cu.{component}.{phase}"] = value
        for stem in self.executor.stems.values():
            acct = stem.index.accountant
            for count in ACCOUNTANT_COUNTS:
                out[f"indexes.{count}"] = out.get(f"indexes.{count}", 0) + getattr(acct, count)
            if getattr(stem, "lazy", False):
                telemetry = stem.crack_telemetry()
                for key in ("hits", "misses"):
                    name = f"result_cache.{key}"
                    out[name] = out.get(name, 0) + telemetry.get(f"cache_{key}", 0)
        for name, (hits, misses) in cache_counts().items():
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
        return out

    def end_of_warmup(self) -> None:
        self.tracer.reset()
        self.index_bytes_peak = self.assessment_entries_peak = 0
        self.warm = self.counters()

    def read(self, run: dict, tick_spans, spec: dict) -> dict:
        """Additive quantities (``sums``) and maxima (``peaks``) of the timed
        region; the parent pools sub-runs and derives the ratios."""
        tracer = self.tracer
        now = self.counters()
        sums = {name: value - self.warm.get(name, 0) for name, value in now.items()}
        for name, (calls, busy, child) in tracer.cells.items():
            layer, _, rest = name.partition(".")
            if layer == "indexes":  # indexes.<Class>.<op> -> summed over classes
                cls, _, op = rest.partition(".")
                name = f"indexes.{op}"
                if cls == "BitAddressIndex":
                    sums["indexes.bit_address.calls"] = (
                        sums.get("indexes.bit_address.calls", 0) + calls
                    )
            for key, value in (("calls", calls), ("busy_s", busy / 1e9),
                               ("self_s", (busy - child) / 1e9)):
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        sums["router.route_hops"] = tracer.route_hops
        sums["workloads.gen_s"] = run["gen_ns"] / 1e9
        sums["kernel.tick_wall_s"] = sum(run["tick_ns"]) / 1e9
        sums["kernel.tick_ref_wall_s"] = sum(run["tick_ref_ns"]) / 1e9
        sums["kernel.ticks"] = len(run["tick_ns"])
        sums["kernel.outputs"] = run["outputs"]
        sums["kernel.backlog_sum"] = run["backlog_sum"]
        sums["trace.spans"] = tracer.write(spec["trace_path"], spec["params"]["seed"], tick_spans)
        return {
            "sums": sums,
            "peaks": {
                "kernel.tick_ms_max": max(run["tick_ns"], default=0) / 1e6,
                "kernel.backlog_max": run["backlog_max"],
                "kernel.backlog_end": run["backlog_end"],
                "indexes.bytes_peak": self.index_bytes_peak,
                "assessment.entries_peak": self.assessment_entries_peak,
            },
            # Same additions in the same order: the same float, not merely close.
            "cu_exact": self.cu_total == self.executor.meter.total_spent,
            "absent": tracer.absent,
        }


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the process-wide memos, where they still exist."""
    from repro.core import probe_plan
    from repro.utils import bitops

    out: dict[str, tuple[int, int]] = {}
    hits = misses = 0
    for name in ("compile_probe_plan", "compile_key_plan", "compile_matcher"):
        info = getattr(getattr(probe_plan, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            misses += info().misses
    out["probe_plan.compile"] = (hits, misses)
    info = getattr(getattr(bitops, "_cached_value_hash", None), "cache_info", None)
    out["bitops.hash_memo"] = (info().hits, info().misses) if info is not None else (0, 0)
    return out


# --------------------------------------------------------------------- #
# the informational engine-option sweep


def mode_cell(spec: dict) -> dict:
    """One engine-option cell on the spec's inputs, timed as a whole run."""
    opts = spec["cell_opts"]
    harness_fn = opts.pop("harness", None)
    offered = inspect.signature(PaperScenario.make_executor).parameters
    if any(key not in offered for key in opts if key not in ("partitions", "fleet")) or (
        harness_fn is not None and not hasattr(harness, harness_fn)
    ):
        return {"absent": True}
    scenario, training = trained(spec)
    duration = spec["warmup"] + spec["ticks"]
    start = time.perf_counter()
    if harness_fn is None:
        stats = make_executor(scenario, training, spec, **opts).run(
            duration, scenario.make_generator()
        )
    else:
        stats, _engine = getattr(harness, harness_fn)(
            scenario, spec["scheme"], duration, training=training, **opts
        )
    wall = time.perf_counter() - start
    backlog = stats.samples[-1].backlog if stats.samples else 0
    return {
        "absent": False,
        "wall_s": wall,
        "requests": routed(stats, backlog),
        "outputs": stats.outputs,
        "fingerprint_sha256": fingerprint(stats),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    kind = spec["kind"]
    if kind == "measure":
        out = measure(spec)
    elif kind == "mode":
        out = mode_cell(spec)
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
