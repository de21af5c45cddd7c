"""Canned experiment scenarios — Section V's setup as a builder.

The paper's evaluation uses one scenario throughout: a 4-way join across 4
streams, every pair of streams joined on its own attribute, so each state
has 3 join attributes and 7 possible access patterns; each state's index
gets a 64-bit configuration; drift in join selectivities keeps the router
(and therefore the access-pattern mix) moving.

:class:`PaperScenario` bundles the query, the drifting generator, and the
factory methods that assemble an executor for any index scheme:

- ``"amri:<assessor>"`` — bit-address index + AMRI tuner, assessor one of
  ``sria | csria | dia | cdia-random | cdia-highest``;
- ``"hash:<k>"`` — k hash access modules with adaptive conventional
  selection (CDIA-highest assessment), the state-of-the-art baseline;
- ``"static"`` — non-adapting bit-address index (tuning off);
- ``"inverted"`` — per-attribute exact inverted lists (untunable extra baseline);
- ``"scan"`` — no index at all.

A scheme is the one name of a state's index: :func:`parse_scheme` splits
it into ``(family, arg)`` and :data:`SCHEMES` holds one builder per family.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.access_pattern import AccessPattern
from repro.core.assessment import CDIA, make_assessor
from repro.core.bit_index import BitAddressIndex
from repro.core.index_config import IndexConfiguration, uniform_configuration
from repro.core.selector import IndexSelector
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner
from repro.engine.executor import AMRExecutor, ExecutorConfig
from repro.engine.metrics import MetricsRegistry
from repro.engine.query import JoinPredicate, Query
from repro.engine.resources import ResourceMeter
from repro.engine.router import (
    ContentBasedRouter,
    FixedRouter,
    GreedyAdaptiveRouter,
    Router,
)
from repro.engine.stream import StreamSchema
from repro.indexes.base import CostParams, StateIndex
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.storage import StateStore, Tuner
from repro.utils.rng import derive_seed
from repro.workloads.generators import (
    SyntheticStreamGenerator,
    diurnal_burst_modulation,
    rotating_hotspot_schedules,
)


@dataclass(frozen=True)
class ScenarioParams:
    """Tunable knobs of the paper scenario (defaults match DESIGN.md)."""

    stream_names: tuple[str, ...] = ("A", "B", "C", "D")
    rate: int = 12  # tuples per stream per tick (λ_d)
    window: int = 20  # ticks
    phase_len: int = 60  # drift phase length in ticks
    # Value distribution: every join attribute draws Zipf-skewed values
    # over a fixed 256-value domain; the hot attribute's stronger skew makes
    # joins on it explode (match prob ≈ 1/2.5) while cold attributes stay
    # selective (≈ 1/23).  Calibrated so the 4-way join yields ≈0.9 outputs
    # per source tuple and so that specialising the IC genuinely pays.
    domain: int = 256  # distinct values per join attribute (8 bits entropy)
    hot_skew: float = 2.0  # Zipf exponent of the currently-hot attribute
    cold_skew: float = 1.0  # Zipf exponent of the others
    bit_budget: int = 64  # IC width per state (the paper's 64 bits)
    theta: float = 0.1  # assessment threshold (paper: 0.1)
    epsilon: float = 0.05  # assessment error rate (paper's delta = 0.05)
    assess_interval: int = 40  # ticks between tuning rounds
    explore_prob: float = 0.15  # router exploration rate (suboptimal probes)
    router: str = "greedy"  # routing policy: greedy | content | fixed
    capacity: float = 19_000.0  # cost units per tick: above tuned-AMRI demand, below mistuned demand
    memory_budget: int = 380_000  # bytes: above AMRI's burst peak (~310k); hash/static cross under load
    seed: int = 7
    rate_modulation: str | None = None  # arrival-rate shape: None (flat) | "diurnal_burst"

    @property
    def stream_pairs(self) -> tuple[tuple[str, str], ...]:
        """Every unordered stream pair, in combination order."""
        return tuple(itertools.combinations(self.stream_names, 2))

    @property
    def pair_attributes(self) -> tuple[str, ...]:
        """One join attribute per unordered stream pair, e.g. ``AB``.

        Single-character stream names concatenate (matching the paper-style
        ``AB`` naming); longer names join with an underscore.
        """
        return tuple(self.attribute_for_pair(a, b) for a, b in self.stream_pairs)

    @staticmethod
    def attribute_for_pair(a: str, b: str) -> str:
        """The shared join attribute name for streams ``a`` and ``b``."""
        a, b = sorted((a, b))
        return f"{a}{b}" if len(a) == 1 and len(b) == 1 else f"{a}_{b}"


def parse_scheme(scheme: str) -> tuple[str, str | int | None]:
    """Split a scheme name into ``(family, arg)`` — the only place one is split.

    ``amri:<assessor>`` gives ``("amri", "<assessor>")`` (the name itself is
    :func:`~repro.core.assessment.make_assessor`'s to check), ``hash:<k>``
    gives ``("hash", k)`` for an ASCII decimal ``k >= 1``, and ``static`` /
    ``inverted`` / ``scan`` take no argument.  Anything else is the one
    ``unknown scheme`` ``ValueError``.
    """
    family, *arg = scheme.split(":", 1)
    if family == "amri" and arg:
        return family, arg[0]
    if family == "hash" and arg and arg[0].isascii() and arg[0].isdigit() and int(arg[0]) >= 1:
        return family, int(arg[0])
    if family in ("static", "inverted", "scan") and not arg:
        return family, None
    raise ValueError(
        f"unknown scheme {scheme!r}; expected amri:<assessor>, hash:<k> (k >= 1), "
        "static, inverted, or scan"
    )


def parse_scheme_list(text: str) -> list[str]:
    """A CLI's comma-separated ``--schemes`` value as a list of scheme names.

    An empty list and a repeated name are ``ValueError``s naming the value
    (a repeat would run twice and report once: results are keyed by scheme).
    """
    schemes = [s.strip() for s in text.split(",") if s.strip()]
    if not schemes:
        raise ValueError(f"--schemes names no scheme, got {text!r}")
    repeated = sorted({s for s in schemes if schemes.count(s) > 1})
    if repeated:
        raise ValueError(f"--schemes repeats {', '.join(repeated)}, got {text!r}")
    return schemes


@dataclass(frozen=True)
class StateStart:
    """Where one state starts: its IC and, for ``hash:<k>``, its modules."""

    config: IndexConfiguration
    patterns: list[AccessPattern] | None = None


def _amri(scenario: PaperScenario, stream: str, jas, assessor_name: str, start: StateStart):
    p = scenario.params
    index = BitAddressIndex(start.config, None, scenario.cost_params)
    assessor = make_assessor(
        assessor_name, jas, epsilon=p.epsilon, seed=scenario.assessor_seed(stream)
    )
    selector = IndexSelector(jas, p.bit_budget, scenario.cost_params)
    return index, AMRITuner(index, assessor, selector, theta=p.theta, params=scenario.cost_params)


def _hash(scenario: PaperScenario, stream: str, jas, k: int, start: StateStart):
    p = scenario.params
    patterns = start.patterns
    if not patterns:
        # Default modules: the k single-attribute patterns first, then
        # pairs — a reasonable uninformed starting set.
        combos = [c for r in (1, 2) for c in itertools.combinations(jas.names, r)]
        patterns = [AccessPattern.from_attributes(jas, list(c)) for c in combos]
        patterns.append(AccessPattern.all_attributes(jas))
        patterns = patterns[:k]
    index = MultiHashIndex(jas, patterns, None, scenario.cost_params)
    assessor = CDIA(jas, p.epsilon, combine="highest_count", seed=scenario.assessor_seed(stream))
    return index, HashIndexTuner(index, assessor, k=k, theta=p.theta)


def _static(scenario: PaperScenario, stream: str, jas, arg: None, start: StateStart):
    index = StaticBitmapIndex(start.config, None, scenario.cost_params)
    return index, NullTuner(make_assessor("sria", jas))


def _inverted(scenario: PaperScenario, stream: str, jas, arg: None, start: StateStart):
    return InvertedListIndex(jas, None, scenario.cost_params), NullTuner(make_assessor("sria", jas))


def _scan(scenario: PaperScenario, stream: str, jas, arg: None, start: StateStart):
    return ScanIndex(jas, None, scenario.cost_params), NullTuner(make_assessor("sria", jas))


#: The scheme table: family → ``build(scenario, stream, jas, arg, start)``
#: returning the state's ``(index, tuner)``.  A new index scheme is one row
#: here (and its family name in :func:`parse_scheme`).
SCHEMES: dict[str, Callable[..., tuple[StateIndex, Tuner]]] = {
    "amri": _amri,
    "hash": _hash,
    "static": _static,
    "inverted": _inverted,
    "scan": _scan,
}


class PaperScenario:
    """The Section V experimental setup, ready to instantiate per scheme."""

    def __init__(self, params: ScenarioParams | None = None) -> None:
        self.params = params if params is not None else ScenarioParams()
        p = self.params

        stream_attrs = {s: [] for s in p.stream_names}
        predicates = []
        for (left, right), attr in zip(p.stream_pairs, p.pair_attributes):
            stream_attrs[left].append(attr)
            stream_attrs[right].append(attr)
            predicates.append(JoinPredicate(left, attr, right, attr))
        streams = [StreamSchema(s, tuple(attrs)) for s, attrs in stream_attrs.items()]
        self.query = Query(
            streams, predicates, window=p.window, name=f"paper-{len(p.stream_names)}way"
        )

        self.schedules = rotating_hotspot_schedules(
            p.pair_attributes,
            phase_len=p.phase_len,
            domain=p.domain,
            hot_skew=p.hot_skew,
            cold_skew=p.cold_skew,
        )
        self.cost_params = CostParams()
        if p.rate_modulation not in (None, "diurnal_burst"):
            raise ValueError(
                f"unknown rate_modulation {p.rate_modulation!r}; "
                "expected None or 'diurnal_burst'"
            )
        # (stream, tick) -> multiplier applied to arrival rates, or None
        self._rate_modulation = diurnal_burst_modulation() if p.rate_modulation else None

    # ------------------------------------------------------------------ #
    # workload

    def make_generator(self, *, seed_offset: int = 0) -> SyntheticStreamGenerator:
        """A fresh arrival generator (identical across schemes per offset)."""
        p = self.params
        return SyntheticStreamGenerator(
            {s: self.query.schema(s).attributes for s in p.stream_names},
            self.schedules,
            {s: p.rate for s in p.stream_names},
            rate_modulation=self._rate_modulation,
            seed=derive_seed(p.seed, "generator", seed_offset),
        )

    def domain_bits(self) -> dict[str, int]:
        """Value-entropy caps for the cost model."""
        return self.make_generator().domain_bits()

    # ------------------------------------------------------------------ #
    # stem factories

    def assessor_seed(self, stream: str) -> int:
        """The seed of ``stream``'s compacting assessor (fixed per scenario seed)."""
        p = self.params
        return derive_seed(p.seed, f"assessor:{stream}", p.stream_names.index(stream))

    def build_stems(
        self,
        scheme: str,
        *,
        initial_configs: dict[str, IndexConfiguration] | None = None,
        initial_hash_patterns: dict[str, list[AccessPattern]] | None = None,
    ) -> dict[str, StateStore]:
        """Assemble one state store (the paper's STeM) per stream for the named index scheme.

        The scheme's row of :data:`SCHEMES` builds each state's index and
        tuner; a state without an entry in ``initial_configs`` starts from
        the uninformed IC (the bit budget spread evenly over its JAS).
        """
        p = self.params
        family, arg = parse_scheme(scheme)
        build = SCHEMES[family]
        stems: dict[str, StateStore] = {}
        for stream in p.stream_names:
            jas = self.query.jas_for(stream)
            config = (initial_configs or {}).get(stream)
            if config is None:
                config = uniform_configuration(jas, p.bit_budget)
            start = StateStart(config, (initial_hash_patterns or {}).get(stream))
            index, tuner = build(self, stream, jas, arg, start)
            stems[stream] = StateStore(
                stream, jas, index, p.window, tuner, cost_params=self.cost_params
            )
        return stems

    # ------------------------------------------------------------------ #
    # routing

    def make_router(self) -> Router:
        """Build the scenario's routing policy (``params.router``)."""
        p = self.params
        seed = derive_seed(p.seed, "router")
        if p.router == "greedy":
            return GreedyAdaptiveRouter(self.query, explore_prob=p.explore_prob, seed=seed)
        if p.router == "content":
            return ContentBasedRouter(self.query, explore_prob=p.explore_prob, seed=seed)
        if p.router == "fixed":
            names = self.query.stream_names
            return FixedRouter({s: [t for t in names if t != s] for s in names})
        raise ValueError(
            f"unknown router {p.router!r}; expected greedy, content, or fixed"
        )

    # ------------------------------------------------------------------ #
    # executors

    def make_executor(
        self,
        scheme: str,
        *,
        initial_configs: dict[str, IndexConfiguration] | None = None,
        initial_hash_patterns: dict[str, list[AccessPattern]] | None = None,
        capacity: float | None = None,
        memory_budget: int | None = None,
        output_sink=None,
        event_log=None,
        degrade: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> AMRExecutor:
        """A ready-to-run executor for the named scheme.

        ``metrics`` attaches a :class:`~repro.engine.metrics.MetricsRegistry`
        for cost-unit attribution and span tracing; omitted, every
        instrumentation hook is a no-op (observer-effect-free).
        """
        p = self.params
        stems = self.build_stems(
            scheme,
            initial_configs=initial_configs,
            initial_hash_patterns=initial_hash_patterns,
        )
        router = self.make_router()
        meter = ResourceMeter(
            params=self.cost_params,
            capacity=p.capacity if capacity is None else capacity,
            memory_budget=p.memory_budget if memory_budget is None else memory_budget,
        )
        config = ExecutorConfig(assess_interval=p.assess_interval)
        return AMRExecutor(
            self.query,
            stems,
            router,
            meter,
            arrival_rates={s: float(p.rate) for s in p.stream_names},
            domain_bits=self.domain_bits(),
            config=config,
            output_sink=output_sink,
            event_log=event_log,
            degrade=degrade,
            metrics=metrics,
        )


def sensor_network_params(
    *,
    seed: int = 17,
    rate: int = 8,
    window: int = 12,
    phase_len: int = 80,
) -> ScenarioParams:
    """A sensor-network flavoured scenario (extension beyond Section V).

    The IPPS paper's own evaluation is synthetic-only; its companion tech
    report adds real sensor data we do not have.  This scenario is the
    closest synthetic equivalent: a 3-way join of *readings*, *alerts*, and
    *maintenance* events, pairwise correlated (each state has 2 join
    attributes), with diurnally modulated, bursty arrivals on top of the
    usual selectivity drift.  Bursts stress exactly what the paper's OOM
    arguments are about: transient backlog against the memory budget.
    """
    # A 3-way join is far less selective than the 4-way evaluation query
    # (two predicates instead of six gate each result), so the windows are
    # shorter and the hot skew milder to keep output rates comparable.
    return ScenarioParams(
        stream_names=("readings", "alerts", "maint"),
        rate=rate,
        window=window,
        phase_len=phase_len,
        hot_skew=1.4,
        seed=seed,
        capacity=2_600.0,
        memory_budget=330_000,
        rate_modulation="diurnal_burst",
    )


def sensor_network_scenario(**knobs: int) -> PaperScenario:
    """:func:`sensor_network_params` as a ready-to-run scenario."""
    return PaperScenario(sensor_network_params(**knobs))


#: Every canned scenario by name: ``seed -> ScenarioParams``, so a run is
#: described by value (the CLIs' ``--scenario`` choices, ``RunSpec`` and the
#: golden corpus all read this one table).
SCENARIO_PARAMS = {
    "paper": lambda seed: ScenarioParams(seed=seed),
    # A shrunken 3-way paper scenario: fast, but exercising every phase
    # (tuning every 6 ticks, drift every 8, real backlog under load).
    "paper-small": lambda seed: ScenarioParams(
        stream_names=("A", "B", "C"),
        rate=3,
        window=6,
        phase_len=8,
        domain=8,
        bit_budget=16,
        assess_interval=6,
        capacity=3_000.0,
        memory_budget=600_000,
        seed=seed,
    ),
    "sensor": sensor_network_params,
}


def scenario_params(name: str, seed: int) -> ScenarioParams:
    """The named scenario's parameters at ``seed``."""
    if name not in SCENARIO_PARAMS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {tuple(SCENARIO_PARAMS)}")
    return SCENARIO_PARAMS[name](seed=seed)
