"""Wall-clock tracing of the engine's layers from outside ``src/``.

The traced pass wraps calls into each layer's public functions: the
kernel's stages become timing proxies, the bound methods of every
``StateStore`` and of the router are shadowed on the instance, and the
index backend classes in use are patched at class level (an index object
can be replaced mid-run, its class cannot).  Nothing here reads engine
state the engine does not expose, and nothing touches the virtual clock:
the traced run's ``stats_fingerprint`` must equal the untraced run's.

A wrapper costs two ``perf_counter_ns`` calls and a list push/pop; the
traced run is reported beside the untraced one as ``trace.overhead_ratio``.
Patches live for the life of the (child) process that installed them.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

#: StateStore methods wrapped when present, by metric stem.
STORE_METHODS = ("insert", "expire", "probe", "probe_batch", "tune", "crack_step")
#: Index backend methods by metric stem; the first name a class has wins.
INDEX_METHODS = {
    "insert": ("insert",),
    "remove": ("remove",),
    "search": ("search",),
    "search_batch": ("search_batch",),
    "migrate": ("reconfigure", "set_patterns"),
}


class Tracer:
    """Per-name (calls, busy, child) aggregates plus tick and stage spans."""

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {}  # name -> [calls, busy_ns, child_ns]
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, tick
        self.route_hops = 0
        self.absent: list[str] = []
        self._stack: list[int] = []  # child time of each open wrapper

    def reset(self) -> None:
        """Forget everything measured so far (end of warm-up)."""
        for cell in self.cells.values():
            cell[:] = (0, 0, 0)
        self.spans.clear()
        self.route_hops = 0

    def wrap(self, name: str, fn, *, span_tick=None):
        """``fn`` timed under ``name``; nested wrappers charge their time to
        the parent's child total, so self time = busy - child."""
        cell = self.cells.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans

        def timed(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                busy = end - start
                cell[0] += 1
                cell[1] += busy
                cell[2] += stack.pop()
                if stack:
                    stack[-1] += busy
                if span_tick is not None:
                    spans.append((name, start, end, span_tick(*args)))

        return timed

    # -- installation ---------------------------------------------------- #

    def install(self, executor) -> None:
        """Wrap every layer boundary reachable from ``executor``."""
        kernel = executor.kernel
        kernel.stages = tuple(_StageProxy(stage, self) for stage in kernel.stages)

        router = executor.router
        inner = self.wrap("router.choose_route", router.choose_route)

        def choose_route(*args, **kwargs):
            route = inner(*args, **kwargs)
            self.route_hops += len(route)
            return route

        router.choose_route = choose_route

        classes = []
        for stem in executor.stems.values():
            for method in STORE_METHODS:
                self._shadow(stem, method, f"storage.{method}")
            # MigrationStage steps the lifecycle directly; the store's
            # migration_step only delegates to it.
            self._shadow(getattr(stem, "lifecycle", None), "step", "storage.migration_step")
            self._shadow(getattr(stem, "tuner", None), "tune", "tuner.tune")
            if type(stem.index) not in classes:
                classes.append(type(stem.index))
        try:
            from repro.core.bit_index import BitAddressIndex
        except ImportError:
            self.absent.append("repro.core.bit_index.BitAddressIndex")
        else:
            # Always traced, so a workload that must never enter it can
            # show zero calls.
            if BitAddressIndex not in classes:
                classes.append(BitAddressIndex)
        patched = set()
        for cls in classes:
            for stem_name, candidates in INDEX_METHODS.items():
                method = next((m for m in candidates if hasattr(cls, m)), None)
                if method is None:
                    self.absent.append(f"{cls.__name__}.{stem_name}")
                    continue
                # Patch the class that defines the method, once, so an
                # inherited method is neither missed nor counted twice.
                owner = next(c for c in cls.__mro__ if method in vars(c))
                if (owner, method) not in patched:
                    patched.add((owner, method))
                    name = f"indexes.{owner.__name__}.{stem_name}"
                    setattr(owner, method, self.wrap(name, vars(owner)[method]))

    def _shadow(self, obj, method: str, name: str) -> None:
        fn = getattr(obj, method, None)
        if fn is None:
            self.absent.append(name)
        else:
            setattr(obj, method, self.wrap(name, fn))

    # -- read-out -------------------------------------------------------- #

    def write(self, path, run_id: int, tick_spans: list[tuple[int, int, int]]) -> int:
        """Append this run's spans and aggregates to ``path`` as JSON lines;
        returns the number of spans written."""
        with open(path, "a") as out:
            for tick, start, end in tick_spans:
                out.write(json.dumps(
                    {"run": run_id, "name": "tick", "tick": tick, "parent": None,
                     "start_ns": start, "end_ns": end}) + "\n")
            for name, start, end, tick in self.spans:
                out.write(json.dumps(
                    {"run": run_id, "name": name, "tick": tick, "parent": "tick",
                     "start_ns": start, "end_ns": end}) + "\n")
            for name, (calls, busy, child) in sorted(self.cells.items()):
                out.write(json.dumps(
                    {"run": run_id, "aggregate": name, "calls": calls,
                     "busy_ns": busy, "self_ns": busy - child}) + "\n")
            out.write(json.dumps({"run": run_id, "absent": self.absent}) + "\n")
        return len(tick_spans) + len(self.spans)


class _StageProxy:
    """A kernel stage timed per tick; everything else forwards."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self._stage = stage
        self.name = stage.name
        self.run = tracer.wrap(
            f"kernel.{stage.name}", stage.run, span_tick=lambda ctx, tick: tick.tick
        )

    def __getattr__(self, attr):
        return getattr(self._stage, attr)
