"""Deterministic fault injection and run-invariant checking, as a harness
around the engine kernel.

The paper's headline failure mode is an index scheme dying of memory
mid-run (Section V); robustness work on runtime-optimised stream joins
treats hostile load as a first-class evaluation axis.  This module makes
such stress *injectable and reproducible* without an engine option: it
drives ``executor.kernel.step(t, …)`` itself (:func:`drive`) and perturbs
the run at tick boundaries —

- **bursts** — arrivals on one stream are replicated for a few ticks;
- **stalls** — arrivals on one stream are suppressed for a few ticks;
- **drops** — individual arriving tuples are lost;
- **delays** — individual arriving tuples are held back and re-delivered
  (re-stamped) a few ticks later, as a lossy network would;
- **memory squeezes** — the meter's memory budget is transiently
  multiplied down for the step, modelling co-tenant pressure;
- **forced migrations** — an out-of-schedule tuning round is forced on one
  state after the step, as if the tuner misfired;
- **statistics corruption** — bogus access-pattern records are injected
  into one state's assessment sampler after the step, poisoning its
  frequency estimates.

Everything is driven by a per-tick child RNG derived from ``(fault seed,
tick)`` via :func:`~repro.utils.rng.derive_seed`, so the same ``(workload
seed, fault seed)`` pair yields the same perturbation sequence, and faults
on identical arrival streams are identical across index schemes — which is
what lets the differential tests compare scheme outputs *under* faults.

:class:`InvariantChecker` is the other half: :func:`drive` calls it after
every surviving tick to re-verify window expiry, memory accounting and
statistics monotonicity; it reads the run and never charges the virtual
clock.  That every index answers as one rebuilt from its live window is
``tests/storage/test_store_machine.py``'s rule.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

from repro.core.access_pattern import AccessPattern
from repro.engine.executor import AMRExecutor
from repro.engine.kernel.stages import tune_round
from repro.engine.stats import RunStats
from repro.engine.tuples import StreamTuple
from repro.experiments.parallel import RunOutcome, RunSpec, spec_executor
from repro.utils.rng import derive_seed
from repro.utils.validation import check_fraction, check_non_negative, check_positive


@dataclass(frozen=True)
class FaultPlan:
    """Per-tick fault activation probabilities and effect shapes.

    All probabilities are evaluated once per tick (per stream where the
    fault targets a stream); an all-zero plan injects nothing.  Effect
    lengths are in ticks.
    """

    burst_prob: float = 0.0  # start an arrival burst on one stream
    burst_factor: int = 3  # arrival replication factor while bursting
    burst_len: int = 5
    stall_prob: float = 0.0  # start an arrival stall on one stream
    stall_len: int = 3
    drop_prob: float = 0.0  # lose each arriving tuple independently
    delay_prob: float = 0.0  # hold back each arriving tuple independently
    delay_ticks: int = 4
    migrate_prob: float = 0.0  # force an out-of-schedule tuning round
    squeeze_prob: float = 0.0  # start a transient memory-budget squeeze
    squeeze_factor: float = 0.5  # budget multiplier while squeezed
    squeeze_len: int = 5
    corrupt_prob: float = 0.0  # poison one state's assessment sampler
    corrupt_records: int = 40  # bogus pattern records per corruption

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_prob"):
                check_fraction(f.name, getattr(self, f.name))
        check_positive("burst_factor", self.burst_factor)
        check_positive("burst_len", self.burst_len)
        check_positive("stall_len", self.stall_len)
        check_positive("delay_ticks", self.delay_ticks)
        check_fraction("squeeze_factor", self.squeeze_factor, inclusive_low=False)
        check_positive("squeeze_len", self.squeeze_len)
        check_non_negative("corrupt_records", self.corrupt_records)

    @property
    def enabled(self) -> bool:
        """True when any fault has a non-zero activation probability."""
        return any(
            getattr(self, f.name) > 0.0 for f in fields(self) if f.name.endswith("_prob")
        )


#: Named presets.  ``arrivals`` and ``tuning`` are semantics-preserving
#: (identical outputs across index schemes on identical arrivals);
#: ``memory`` stresses the degradation path; ``chaos`` is everything at once.
FAULT_PROFILES: dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "arrivals": FaultPlan(
        burst_prob=0.04, stall_prob=0.03, drop_prob=0.02, delay_prob=0.03
    ),
    "tuning": FaultPlan(migrate_prob=0.05, corrupt_prob=0.05),
    "memory": FaultPlan(squeeze_prob=0.04, squeeze_factor=0.45, squeeze_len=6),
    "chaos": FaultPlan(
        burst_prob=0.03,
        stall_prob=0.02,
        drop_prob=0.02,
        delay_prob=0.02,
        migrate_prob=0.03,
        squeeze_prob=0.03,
        corrupt_prob=0.03,
    ),
}


class FaultInjector:
    """Seeded, deterministic per-tick run perturbation.

    :func:`drive` consults the injector in a fixed order each tick:

    1. :meth:`begin_tick` — roll this tick's activations (new bursts,
       stalls, squeezes, forced migrations, corruptions) and log them as
       ``fault`` events;
    2. :meth:`perturb_arrivals` — apply stall/drop/delay/burst to the
       tick's arrival batch and release previously delayed tuples;
    3. :meth:`memory_budget` — the (possibly squeezed) budget for the step;
    4. :meth:`forced_migrations` / :meth:`corruptions` — tuning-level
       perturbations to apply once the step is over.

    All randomness for tick ``t`` comes from a child RNG derived from
    ``(seed, t)``, so the injected schedule depends only on the fault seed
    — never on scheme behaviour or execution order.
    """

    def __init__(self, plan: FaultPlan, streams: Sequence[str], *, seed: int = 0) -> None:
        if not streams:
            raise ValueError("need at least one stream to perturb")
        self.plan = plan
        self.streams = tuple(streams)
        self.seed = int(seed)

        self._burst_until: dict[str, int] = {}
        self._stall_until: dict[str, int] = {}
        self._squeeze_until: int = -1
        self._delayed: dict[int, list[StreamTuple]] = {}
        self._tick_rng: random.Random | None = None
        self._forced: tuple[str, ...] = ()
        self._corrupt: tuple[str, ...] = ()
        self.injected = 0  # fault activations so far (all types)

    # ------------------------------------------------------------------ #
    # per-tick protocol

    def begin_tick(self, tick: int, event_log=None) -> None:
        """Roll this tick's fault activations (call once, first)."""
        plan = self.plan
        rng = random.Random(derive_seed(self.seed, "fault-tick", tick))
        self._tick_rng = rng
        forced: list[str] = []
        corrupt: list[str] = []
        # Stream-targeted activations roll in a fixed stream order so the
        # draw sequence is identical for every run of the same seed.
        for stream in self.streams:
            if plan.burst_prob > 0.0 and rng.random() < plan.burst_prob:
                if self._burst_until.get(stream, -1) < tick:
                    self._burst_until[stream] = tick + plan.burst_len - 1
                    self._activated(
                        event_log, tick, "burst", stream,
                        factor=plan.burst_factor, until=self._burst_until[stream],
                    )
            if plan.stall_prob > 0.0 and rng.random() < plan.stall_prob:
                if self._stall_until.get(stream, -1) < tick:
                    self._stall_until[stream] = tick + plan.stall_len - 1
                    self._activated(
                        event_log, tick, "stall", stream,
                        until=self._stall_until[stream],
                    )
            if plan.migrate_prob > 0.0 and rng.random() < plan.migrate_prob:
                forced.append(stream)
                self._activated(event_log, tick, "migrate", stream)
            if plan.corrupt_prob > 0.0 and rng.random() < plan.corrupt_prob:
                corrupt.append(stream)
                self._activated(
                    event_log, tick, "corrupt", stream,
                    records=plan.corrupt_records,
                )
        if plan.squeeze_prob > 0.0 and rng.random() < plan.squeeze_prob:
            if self._squeeze_until < tick:
                self._squeeze_until = tick + plan.squeeze_len - 1
                self._activated(
                    event_log, tick, "squeeze", None,
                    factor=plan.squeeze_factor, until=self._squeeze_until,
                )
        self._forced = tuple(forced)
        self._corrupt = tuple(corrupt)

    def perturb_arrivals(
        self, tick: int, items: list[StreamTuple]
    ) -> list[StreamTuple]:
        """The tick's effective arrivals after stall/drop/delay/burst.

        Delayed tuples re-enter here at their release tick, re-stamped with
        the delivery tick (a late tuple *arrives* late — windows and
        join-order tie-breaking see the delivery time).
        """
        plan = self.plan
        rng = self._require_tick_rng()
        out: list[StreamTuple] = [
            StreamTuple(d.stream, tick, dict(d))
            for d in self._delayed.pop(tick, [])
        ]
        for item in items:
            if self._stall_until.get(item.stream, -1) >= tick:
                continue
            if plan.drop_prob > 0.0 and rng.random() < plan.drop_prob:
                continue
            if plan.delay_prob > 0.0 and rng.random() < plan.delay_prob:
                self._delayed.setdefault(tick + plan.delay_ticks, []).append(item)
                continue
            out.append(item)
            if self._burst_until.get(item.stream, -1) >= tick:
                out.extend(
                    StreamTuple(item.stream, tick, dict(item))
                    for _ in range(plan.burst_factor - 1)
                )
        return out

    def memory_budget(self, tick: int, base: int) -> int:
        """The effective memory budget at ``tick`` (squeezed or not)."""
        if self._squeeze_until >= tick:
            return max(int(base * self.plan.squeeze_factor), 1)
        return base

    def forced_migrations(self, tick: int) -> tuple[str, ...]:
        """Streams whose state must run an out-of-schedule tuning round."""
        return self._forced

    def corruptions(self, tick: int) -> tuple[str, ...]:
        """Streams whose assessment sampler gets poisoned this tick."""
        return self._corrupt

    def corrupt_patterns(self, jas) -> list[AccessPattern]:
        """Bogus access patterns to record against one poisoned state."""
        rng = self._require_tick_rng()
        full = jas.full_mask
        return [
            AccessPattern.from_mask(jas, rng.randint(1, full))
            for _ in range(self.plan.corrupt_records)
        ]

    # ------------------------------------------------------------------ #

    def _require_tick_rng(self) -> random.Random:
        if self._tick_rng is None:
            raise RuntimeError("begin_tick must be called before per-tick perturbation")
        return self._tick_rng

    def _activated(
        self, event_log, tick: int, fault: str, stream: str | None, **detail: object
    ) -> None:
        self.injected += 1
        if event_log is not None:
            event_log.record(tick, "fault", stream, fault=fault, **detail)


class InvariantViolation(AssertionError):
    """An :class:`InvariantChecker` caught the engine misbehaving."""


class InvariantChecker:
    """Per-tick engine invariant assertions over an
    :class:`~repro.engine.kernel.EngineContext`.

    :func:`drive` calls :meth:`check` after every surviving tick, which
    runs every check:

    - **window expiry** — no state retains a tuple whose window has passed
      (a tuple arrives at its ``arrived_at`` tick and expires a window
      length later);
    - **memory accounting** — every memory gauge and breakdown component is
      non-negative and the backlog charge matches the queue length;
    - **statistics monotonicity** — cumulative counters never decrease.

    The checks read and never probe, so a checked run's :class:`RunStats`
    are byte-identical.
    """

    def __init__(self) -> None:
        self.ticks_checked = 0
        self._prev_outputs = 0
        self._prev_probes = 0

    def check(self, ctx, tick: int) -> None:
        """Assert every invariant; raise :class:`InvariantViolation`."""
        for stem in ctx.stems.values():
            oldest = next(iter(stem.window), None)
            if oldest is not None:
                expiry = oldest.arrived_at + stem.window.length
                if expiry <= tick:
                    raise InvariantViolation(
                        f"t={tick} [{stem.stream}] window holds a tuple expired at {expiry}"
                    )
            if stem.index.memory_bytes < 0:
                raise InvariantViolation(
                    f"t={tick} [{stem.stream}] negative index memory gauge "
                    f"{stem.index.memory_bytes}"
                )
        breakdown = ctx.memory_breakdown()
        for name in ("state_payload", "index_structures", "backlog", "statistics"):
            if getattr(breakdown, name) < 0:
                raise InvariantViolation(f"t={tick} negative memory component {name}")
        queued = len(ctx.queue)
        if breakdown.backlog != queued * ctx.meter.params.queue_item_bytes:
            raise InvariantViolation(
                f"t={tick} backlog charge {breakdown.backlog} != "
                f"{queued} queued items x queue_item_bytes"
            )
        stats = ctx.stats
        if stats.outputs < self._prev_outputs or stats.probes < self._prev_probes:
            raise InvariantViolation(f"t={tick} cumulative counters decreased")
        self._prev_outputs = stats.outputs
        self._prev_probes = stats.probes
        self.ticks_checked += 1


# --------------------------------------------------------------------- #
# the harness


def drive(
    executor: AMRExecutor,
    duration: int,
    arrivals: Callable[[int], list[StreamTuple]],
    faults: FaultPlan | None = None,
    *,
    fault_seed: int = 0,
    checker: InvariantChecker | None = None,
) -> RunStats:
    """``executor.run(duration, arrivals)`` stepped tick by tick, with
    ``faults`` injected at tick boundaries and ``checker`` called after
    every surviving tick.

    Per tick: roll the activations and perturb the tick's arrivals, step
    the kernel under the (possibly squeezed) memory budget, then — unless
    the tick died — poison the assessment samplers and force the tuning
    rounds this tick rolled, and check the invariants.  After the run,
    ``stats.faults_injected`` is the injector's activation count.  With
    neither ``faults`` nor ``checker`` this is exactly ``executor.run``.
    """
    check_positive("duration", duration)
    ctx, kernel = executor.context, executor.kernel
    injector = (
        FaultInjector(faults, ctx.query.stream_names, seed=fault_seed)
        if faults is not None and faults.enabled
        else None
    )
    meter = ctx.meter
    budget = meter.memory_budget
    for t in range(duration):
        incoming = arrivals(t)
        if injector is not None:
            injector.begin_tick(t, ctx.event_log)
            incoming = injector.perturb_arrivals(t, incoming)
            meter.memory_budget = injector.memory_budget(t, budget)
        try:
            tick = kernel.step(t, incoming)
        finally:
            meter.memory_budget = budget
        if tick.died:
            break
        if injector is not None:
            _tuning_faults(ctx, injector, t)
        if checker is not None:
            checker.check(ctx, t)
    stats = ctx.stats
    if injector is not None:
        stats.faults_injected = injector.injected
    return stats


def _tuning_faults(ctx, injector: FaultInjector, t: int) -> None:
    """Poison this tick's sampled states, then force its tuning rounds."""
    for stream in injector.corruptions(t):
        stem = ctx.stems[stream]
        assessor = getattr(stem.tuner, "assessor", None)
        if assessor is None:
            continue
        for ap in injector.corrupt_patterns(stem.jas):
            assessor.record(ap)
    forced = injector.forced_migrations(t)
    if forced:
        tune_round(ctx, t, forced, forced=True)


def execute_faulted(
    spec: RunSpec,
    faults: FaultPlan | None = None,
    *,
    fault_seed: int = 0,
    checker: InvariantChecker | None = None,
) -> RunOutcome:
    """:func:`~repro.experiments.parallel.execute_spec` through :func:`drive`."""
    executor, arrivals = spec_executor(spec)
    stats = drive(executor, spec.ticks, arrivals, faults, fault_seed=fault_seed, checker=checker)
    return RunOutcome.of(spec, executor, stats)
