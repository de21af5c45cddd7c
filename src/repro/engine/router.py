"""Eddy-style adaptive routing (paper refs. [3], [4]).

The router decides, for each arriving tuple, the order in which the other
states are probed.  Three policies:

- :class:`GreedyAdaptiveRouter` — the AMR default: order the remaining
  states by expected probe fan-out (most selective first, the classic
  rate-based eddy heuristic), using the engine's live
  :class:`~repro.engine.stats.SelectivityEstimator`.  With probability
  ``explore_prob`` a tuple is sent down a uniformly random route instead —
  the paper's "periodically the router sends search requests to suboptimal
  operators to update system statistics", which is precisely what pollutes
  assessment tables with rare access patterns and motivates compaction.
- :class:`ContentBasedRouter` — Bizarro et al.'s content-based routing:
  fan-out estimates conditioned on the arriving tuple's attribute values.
  Opt-in (``ScenarioParams.router = "content"``): the paper's router is
  the greedy one.
- :class:`FixedRouter` — a static route (classic fixed query plan), used by
  tests and ablations.

A route names every other state once.  A fixed route and an exploring
draw are whole tuples chosen up front; a greedy route is a
:class:`GreedyRoute`, which picks each next target only when the engine
asks for it, so a request whose partials die at its first hop pays for one
choice, not one per hop.  The probe *pattern* at each hop still depends on which
streams are already joined, so even a fixed route exercises several access
patterns per state.

The two estimator-driven policies walk a :class:`RouteDag`: what a hop
probes depends only on the query, so it is derived once per joined set and
a route reads nothing per hop but the estimates.  A later hop reads
estimates only for targets not yet joined, and a request folds its probes
only into the estimates of targets it has joined, so a route chosen hop by
hop is the route chosen up front.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.engine.query import Query
from repro.engine.stats import SelectivityEstimator
from repro.utils.bitops import fragment
from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction

#: One possible next hop: the target, the ``(target, pattern mask)`` key
#: its fan-out is estimated under (``None`` while no predicate binds the
#: target to the joined streams), and the node after joining it.
Hop = tuple[str, "tuple[str, int] | None", "RouteNode"]


class RouteNode:
    """One joined set of a :class:`RouteDag`.

    ``hops`` is ``None`` until the node is first visited; :meth:`expand`
    then lists every stream not yet joined, in declared (FROM-clause)
    order, as a :data:`Hop`.  A node whose set holds every stream has no
    hops.
    """

    __slots__ = ("dag", "joined", "hops")

    def __init__(self, dag: RouteDag, joined: frozenset[str]) -> None:
        self.dag = dag
        self.joined = joined
        self.hops: tuple[Hop, ...] | None = None

    def expand(self) -> tuple[Hop, ...]:
        """Derive (once) and return this node's hops."""
        if self.hops is None:
            dag, joined = self.dag, self.joined
            hops = []
            for target in dag.query.stream_names:
                if target in joined:
                    continue
                try:
                    ap, _bindings = dag.query.probe_spec(joined, target)
                except ValueError:
                    key = None  # unconnected at this point; deferred
                else:
                    key = (target, ap.mask)
                hops.append((target, key, dag.node(joined | {target})))
            self.hops = tuple(hops)
        return self.hops


class RouteDag:
    """Every route of one query, as a DAG of joined sets per source stream.

    A route from ``source`` starts at ``roots[source]`` (the set
    ``{source}``) and each hop moves to the node of the set with the chosen
    target added; routes that join the same streams in another order meet
    at the same node.  Nodes are created on demand and expanded on first
    visit, from :meth:`Query.probe_spec` alone: the DAG holds no estimator
    state, so it never goes stale.
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        self._nodes: dict[frozenset[str], RouteNode] = {}
        names = query.stream_names
        #: Per source, the other streams in declared order.
        self.targets = {s: tuple(t for t in names if t != s) for s in names}
        self.roots = {s: self.node(frozenset((s,))) for s in names}

    def node(self, joined: frozenset[str]) -> RouteNode:
        """The node of the joined set ``joined``."""
        node = self._nodes.get(joined)
        if node is None:
            node = self._nodes[joined] = RouteNode(self, joined)
        return node


class GreedyRoute:
    """A greedy route, chosen hop by hop as it is iterated.

    Each step walks one node of a :class:`RouteDag`: the next target is the
    hop whose ``score(key, initial)`` is lowest (the first in declared order
    on a tie), and once only cross-product hops remain they follow in
    declared order.  ``score`` has the signature of ``dict.get``: the greedy
    policy passes the estimates' own ``get``, the content policy its
    per-value lookup.  Nothing is read before the first target is asked for,
    and a hop the caller never asks for is never scored.  ``len`` is the
    full route length, every other stream of the query.
    """

    __slots__ = ("root", "length", "score", "initial")

    def __init__(
        self,
        root: RouteNode,
        length: int,
        score: Callable[[tuple[str, int], float], float],
        initial: float,
    ) -> None:
        self.root = root
        self.length = length
        self.score = score
        self.initial = initial

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[str]:
        node = self.root
        score = self.score
        initial = self.initial
        while True:
            hops = node.hops or node.expand()
            if not hops:
                return
            best: str | None = None
            best_score = float("inf")
            for target, key, child in hops:
                if key is None:
                    continue
                value = score(key, initial)
                if value < best_score:
                    best, best_score, next_node = target, value, child
            if best is None:
                # Only cross-product hops remain; keep declared order.
                for hop in hops:
                    yield hop[0]
                return
            yield best
            node = next_node


#: What :meth:`Router.choose_route` returns: the target states in probe
#: order, and ``len`` the number of them.
Route = tuple[str, ...] | GreedyRoute


class Router(abc.ABC):
    """Chooses probe orders for arriving tuples.

    ``item`` (the arriving tuple) is provided so content-based policies can
    condition the route on attribute values; value-agnostic policies ignore
    it.
    """

    @abc.abstractmethod
    def choose_route(
        self,
        source: str,
        estimator: SelectivityEstimator,
        item: Mapping[str, object] | None = None,
    ) -> Route:
        """The ordered target states for a tuple arriving on ``source``:
        a tuple, or a :class:`GreedyRoute` that chooses them as the caller
        iterates it.  Any random draw is made here, before the first
        target."""


class FixedRouter(Router):
    """Always probes in one preconfigured order per source stream."""

    def __init__(self, routes: dict[str, Sequence[str]]) -> None:
        self._routes = {src: tuple(route) for src, route in routes.items()}

    def choose_route(
        self,
        source: str,
        estimator: SelectivityEstimator,
        item: Mapping[str, object] | None = None,
    ) -> tuple[str, ...]:
        try:
            return self._routes[source]
        except KeyError:
            raise KeyError(f"no fixed route configured for source stream {source!r}") from None


class GreedyAdaptiveRouter(Router):
    """Selectivity-greedy routing with ε-exploration.

    At each hop the next target is the not-yet-joined neighbour with the
    lowest estimated fan-out *for the probe shape that hop would actually
    use* (which depends on what is already joined).  Exploration sends the
    whole tuple down a random permutation.
    """

    def __init__(
        self,
        query: Query,
        *,
        explore_prob: float = 0.05,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_fraction("explore_prob", explore_prob)
        self.query = query
        self.explore_prob = explore_prob
        self._rng = make_rng(seed)
        self._dag = RouteDag(query)

    def choose_route(
        self,
        source: str,
        estimator: SelectivityEstimator,
        item: Mapping[str, object] | None = None,
    ) -> Route:
        targets = self._dag.targets[source]
        if len(targets) <= 1:
            return targets
        if self.explore_prob > 0 and self._rng.random() < self.explore_prob:
            order = self._rng.permutation(len(targets))
            return tuple(targets[i] for i in order)
        return GreedyRoute(
            self._dag.roots[source], len(targets), estimator.estimates.get, estimator.initial
        )


class ContentBasedRouter(Router):
    """Content-based routing (Bizarro et al., paper ref. [4]).

    "Different plans for different data": the route is conditioned on the
    arriving tuple's join-attribute *values*, not just aggregate statistics.
    Fan-out estimates are kept per (target, pattern, value bucket), so a
    tuple carrying a currently-hot value is routed around the join that
    would explode for it while ordinary tuples keep the cheap route.
    """

    def __init__(
        self,
        query: Query,
        *,
        value_bits: int = 3,
        explore_prob: float = 0.05,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_fraction("explore_prob", explore_prob)
        if value_bits < 1:
            raise ValueError(f"value_bits must be >= 1, got {value_bits}")
        self.query = query
        self.value_bits = value_bits
        self.explore_prob = explore_prob
        self._rng = make_rng(seed)
        self._dag = RouteDag(query)
        # (target, pattern mask, value bucket) -> EWMA fan-out
        self._content: dict[tuple[str, int, int], float] = {}
        self._alpha = 0.1

    def bucket_for(
        self, item: Mapping[str, object] | None, source: str, target: str
    ) -> int:
        """The value bucket routing/feedback uses for this (tuple, hop)."""
        if item is None:
            return 0
        preds = self.query.predicates_between(source, target)
        if not preds:
            return 0
        value = item.get(preds[0].attr_of(source))
        return fragment(value, self.value_bits) if value is not None else 0

    def observe_content(
        self, target: str, pattern_mask: int, bucket: int, matches: int
    ) -> None:
        """Fold a probe's observed fan-out into its value-bucket estimate."""
        key = (target, pattern_mask, bucket)
        prev = self._content.get(key, 1.0)
        self._content[key] = prev + self._alpha * (matches - prev)

    def choose_route(
        self,
        source: str,
        estimator: SelectivityEstimator,
        item: Mapping[str, object] | None = None,
    ) -> Route:
        targets = self._dag.targets[source]
        if len(targets) <= 1:
            return targets
        if self.explore_prob > 0 and self._rng.random() < self.explore_prob:
            order = self._rng.permutation(len(targets))
            return tuple(targets[i] for i in order)
        estimates = estimator.estimates
        content = self._content
        bucket_for = self.bucket_for

        def score(key: tuple[str, int], initial: float) -> float:
            target, mask = key
            bucket = bucket_for(item, source, target)
            return content.get((target, mask, bucket), estimates.get(key, initial))

        return GreedyRoute(self._dag.roots[source], len(targets), score, estimator.initial)
