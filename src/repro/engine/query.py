"""SPJ query model with sliding-window semantics (Section II, Figure 2).

A :class:`Query` names its streams (FROM), equi-join predicates (WHERE), and
window length (WINDOW).  From the predicates it derives, per stream, the
*join attribute set* (JAS) — the attributes of that stream appearing in at
least one predicate — which is exactly what each STeM's index ranges over.

The model also answers the executor's routing questions: which predicates
bind a probe from a partial result into a target state, and therefore which
access pattern and probe values the search request carries.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import operator

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.engine.stream import StreamSchema

EQUALITY_OPS = ("=",)

_COMPARISON_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class SelectionPredicate:
    """A single-stream filter ``stream.attr <op> constant`` (the S of SPJ).

    Selection predicates are pushed down to admission: tuples failing any
    filter of their stream never enter the state.  Supported operators:
    ``=, !=, <, <=, >, >=``.
    """

    stream: str
    attr: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise ValueError(
                f"unsupported selection operator {self.op!r}; expected one of "
                f"{sorted(_COMPARISON_OPS)}"
            )

    def evaluate(self, values: "Mapping[str, object]") -> bool:
        """True when the tuple satisfies this filter."""
        return bool(_COMPARISON_OPS[self.op](values[self.attr], self.value))

    def __str__(self) -> str:
        return f"{self.stream}.{self.attr} {self.op} {self.value!r}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_stream.left_attr = right_stream.right_attr``.

    The paper's join expressions allow ``=, <, >, >=, <=``; hash/bit-address
    indexes accelerate equality only, and the evaluation uses equi-joins
    throughout, so this model (like the indexes) is equality-based.
    """

    left_stream: str
    left_attr: str
    right_stream: str
    right_attr: str
    op: str = "="

    def __post_init__(self) -> None:
        if self.op not in EQUALITY_OPS:
            raise ValueError(
                f"only equi-join predicates are supported (op in {EQUALITY_OPS}), got {self.op!r}"
            )
        if self.left_stream == self.right_stream:
            raise ValueError(f"self-join predicate on {self.left_stream!r} is not supported")

    def involves(self, stream: str) -> bool:
        """True when ``stream`` is one side of this predicate."""
        return stream in (self.left_stream, self.right_stream)

    def attr_of(self, stream: str) -> str:
        """The attribute this predicate references on ``stream``'s side."""
        if stream == self.left_stream:
            return self.left_attr
        if stream == self.right_stream:
            return self.right_attr
        raise ValueError(f"predicate {self} does not involve stream {stream!r}")

    def other_side(self, stream: str) -> tuple[str, str]:
        """The (stream, attribute) pair opposite ``stream``."""
        if stream == self.left_stream:
            return (self.right_stream, self.right_attr)
        if stream == self.right_stream:
            return (self.left_stream, self.left_attr)
        raise ValueError(f"predicate {self} does not involve stream {stream!r}")

    def __str__(self) -> str:
        return f"{self.left_stream}.{self.left_attr} {self.op} {self.right_stream}.{self.right_attr}"


class Query:
    """A select-project-join query over sliding windows.

    Parameters
    ----------
    streams:
        The FROM clause; one STeM/state is instantiated per stream.
    predicates:
        The WHERE clause (equi-joins).
    window:
        Window length in time units; tuples expire ``window`` ticks after
        arrival.
    name:
        Label for reports.
    """

    def __init__(
        self,
        streams: Iterable[StreamSchema],
        predicates: Iterable[JoinPredicate],
        window: int,
        name: str = "query",
        filters: Iterable[SelectionPredicate] = (),
    ) -> None:
        self.name = name
        self.streams = tuple(streams)
        self.predicates = tuple(predicates)
        self.filters = tuple(filters)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window

        self._schemas = {s.name: s for s in self.streams}
        if len(self._schemas) != len(self.streams):
            raise ValueError("duplicate stream names in FROM clause")
        for pred in self.predicates:
            for stream, attr in (
                (pred.left_stream, pred.left_attr),
                (pred.right_stream, pred.right_attr),
            ):
                schema = self._schemas.get(stream)
                if schema is None:
                    raise ValueError(f"predicate {pred} references unknown stream {stream!r}")
                if attr not in schema:
                    raise ValueError(f"predicate {pred}: stream {stream!r} has no attribute {attr!r}")
        self._filters_by_stream: dict[str, tuple[SelectionPredicate, ...]] = {}
        for filt in self.filters:
            schema = self._schemas.get(filt.stream)
            if schema is None:
                raise ValueError(f"filter {filt} references unknown stream {filt.stream!r}")
            if filt.attr not in schema:
                raise ValueError(f"filter {filt}: stream {filt.stream!r} has no attribute {filt.attr!r}")
            self._filters_by_stream.setdefault(filt.stream, ())
            self._filters_by_stream[filt.stream] += (filt,)

        self._jas = {
            s.name: self._derive_jas(s.name) for s in self.streams
        }
        # (joined streams, target) -> (access pattern, bindings).  Probe
        # derivation is pure in the (immutable) predicate set, and a route
        # revisits the same few combinations every tick, so the router's
        # probe_spec call and the kernel's per-hop probe_row_spec call are
        # dict hits after the first tick.
        self._probe_specs: dict[
            tuple[frozenset[str], str],
            tuple[AccessPattern, tuple[tuple[str, str, str], ...]],
        ] = {}
        self._probe_row_specs: dict[
            tuple[tuple[str, ...], str],
            tuple[AccessPattern, tuple[tuple[str, str], ...]],
        ] = {}

    def _derive_jas(self, stream: str) -> JoinAttributeSet:
        attrs: list[str] = []
        for pred in self.predicates:
            if pred.involves(stream):
                attr = pred.attr_of(stream)
                if attr not in attrs:
                    attrs.append(attr)
        if not attrs:
            raise ValueError(f"stream {stream!r} participates in no join predicate")
        return JoinAttributeSet(sorted(attrs))

    # ------------------------------------------------------------------ #
    # views

    def schema(self, stream: str) -> StreamSchema:
        """The schema of ``stream``."""
        return self._schemas[stream]

    @property
    def stream_names(self) -> tuple[str, ...]:
        """Stream names in FROM-clause order."""
        return tuple(s.name for s in self.streams)

    def jas_for(self, stream: str) -> JoinAttributeSet:
        """The join-attribute set of ``stream`` (the state's index domain)."""
        return self._jas[stream]

    def filters_for(self, stream: str) -> tuple[SelectionPredicate, ...]:
        """Selection predicates on ``stream`` (empty when unfiltered)."""
        return self._filters_by_stream.get(stream, ())

    def passes_filters(self, stream: str, values: Mapping[str, object]) -> bool:
        """True when a ``stream`` tuple satisfies every selection predicate."""
        return all(f.evaluate(values) for f in self._filters_by_stream.get(stream, ()))

    def predicates_between(self, a: str, b: str) -> tuple[JoinPredicate, ...]:
        """All predicates joining streams ``a`` and ``b``."""
        return tuple(p for p in self.predicates if p.involves(a) and p.involves(b))

    def neighbours(self, stream: str) -> tuple[str, ...]:
        """Streams directly joined with ``stream``, sorted."""
        out = set()
        for p in self.predicates:
            if p.involves(stream):
                other, _attr = p.other_side(stream)
                out.add(other)
        return tuple(sorted(out))

    # ------------------------------------------------------------------ #
    # probe derivation — the heart of multi-route access-pattern diversity

    def probe_spec(
        self, joined_streams: frozenset[str] | set[str], target: str
    ) -> tuple[AccessPattern, tuple[tuple[str, str, str], ...]]:
        """What a probe from a partial result into ``target`` looks like.

        Given the set of streams already in the partial result, returns:

        - the access pattern on ``target``'s JAS — the target-side attributes
          of every predicate linking ``target`` to an already-joined stream
          (this is why the route order determines the access pattern, the
          paper's Section I observation); and
        - the value bindings as ``(target_attr, source_stream, source_attr)``
          triples, one per linking predicate: the probe value for
          ``target_attr`` is ``source_stream``'s ``source_attr`` value.

        Raises if no predicate binds the probe (that hop would be a cross
        product; the router never schedules one for connected join graphs).
        """
        key = (frozenset(joined_streams), target)
        cached = self._probe_specs.get(key)
        if cached is not None:
            return cached
        if target in joined_streams:
            raise ValueError(f"target {target!r} already joined")
        bindings: list[tuple[str, str, str]] = []
        attrs: list[str] = []
        for pred in self.predicates:
            if not pred.involves(target):
                continue
            other, other_attr = pred.other_side(target)
            if other in joined_streams:
                t_attr = pred.attr_of(target)
                bindings.append((t_attr, other, other_attr))
                if t_attr not in attrs:
                    attrs.append(t_attr)
        if not bindings:
            raise ValueError(
                f"no predicate binds a probe into {target!r} from {sorted(joined_streams)}"
            )
        ap = AccessPattern.from_attributes(self._jas[target], attrs)
        spec = (ap, tuple(bindings))
        self._probe_specs[key] = spec
        return spec

    def probe_row_spec(
        self, joined_streams: tuple[str, ...], target: str
    ) -> tuple[AccessPattern, tuple[tuple[str, str], ...]]:
        """:meth:`probe_spec` as the recipe of a probe *row*.

        Returns the access pattern and, aligned with ``ap.attributes``, the
        ``(source_stream, source_attr)`` each probe value is read from —
        the predicate's own source stream, never a bare attribute name, so
        a payload column that shares its name with another stream's join
        column cannot be read in its place.  Where several predicates bind
        one target attribute the last one (in WHERE-clause order) supplies
        the value.  ``joined_streams`` is a tuple so the memo lookup hashes
        no set.
        """
        key = (joined_streams, target)
        cached = self._probe_row_specs.get(key)
        if cached is None:
            ap, bindings = self.probe_spec(joined_streams, target)
            source = {t_attr: (stream, attr) for t_attr, stream, attr in bindings}
            cached = (ap, tuple(source[a] for a in ap.attributes))
            self._probe_row_specs[key] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"Query({self.name!r}, streams={list(self.stream_names)}, "
            f"predicates={len(self.predicates)}, window={self.window})"
        )
