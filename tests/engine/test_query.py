"""Tests for the SPJ query model: JAS derivation and probe specs."""

import itertools

import pytest

from repro.core.access_pattern import AccessPattern
from repro.engine.query import JoinPredicate, Query, _row_builder_source
from repro.engine.stream import StreamSchema
from repro.engine.tuples import StreamTuple


def paper_query(window=10):
    """The Section V topology: 4 streams, one shared attribute per pair."""
    pairs = ["AB", "AC", "AD", "BC", "BD", "CD"]
    streams = [
        StreamSchema(s, tuple(p for p in pairs if s in p)) for s in "ABCD"
    ]
    predicates = [JoinPredicate(p[0], p, p[1], p) for p in pairs]
    return Query(streams, predicates, window=window)


class TestJoinPredicate:
    def test_involves_and_attr(self):
        p = JoinPredicate("A", "x", "B", "y")
        assert p.involves("A") and p.involves("B") and not p.involves("C")
        assert p.attr_of("A") == "x" and p.attr_of("B") == "y"

    def test_other_side(self):
        p = JoinPredicate("A", "x", "B", "y")
        assert p.other_side("A") == ("B", "y")
        assert p.other_side("B") == ("A", "x")

    def test_rejects_non_equality(self):
        with pytest.raises(ValueError):
            JoinPredicate("A", "x", "B", "y", op="<")

    def test_rejects_self_join(self):
        with pytest.raises(ValueError):
            JoinPredicate("A", "x", "A", "y")

    def test_attr_of_unknown_stream(self):
        with pytest.raises(ValueError):
            JoinPredicate("A", "x", "B", "y").attr_of("C")

    def test_str(self):
        assert str(JoinPredicate("A", "x", "B", "y")) == "A.x = B.y"


class TestQueryValidation:
    def test_rejects_unknown_stream_in_predicate(self):
        with pytest.raises(ValueError, match="unknown stream"):
            Query(
                [StreamSchema("A", ("x",))],
                [JoinPredicate("A", "x", "B", "y")],
                window=5,
            )

    def test_rejects_unknown_attribute(self):
        with pytest.raises(ValueError, match="no attribute"):
            Query(
                [StreamSchema("A", ("x",)), StreamSchema("B", ("y",))],
                [JoinPredicate("A", "z", "B", "y")],
                window=5,
            )

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            paper_query(window=0)

    def test_rejects_duplicate_streams(self):
        with pytest.raises(ValueError):
            Query(
                [StreamSchema("A", ("x",)), StreamSchema("A", ("x",))],
                [],
                window=5,
            )

    def test_rejects_stream_without_predicate(self):
        with pytest.raises(ValueError, match="no join predicate"):
            Query(
                [StreamSchema("A", ("x",)), StreamSchema("B", ("x",)), StreamSchema("C", ("c",))],
                [JoinPredicate("A", "x", "B", "x")],
                window=5,
            )


class TestJASDerivation:
    def test_paper_topology(self):
        q = paper_query()
        # Each state's JAS: the 3 pair attributes naming that stream.
        assert list(q.jas_for("A").names) == ["AB", "AC", "AD"]
        assert list(q.jas_for("C").names) == ["AC", "BC", "CD"]

    def test_predicates_between(self):
        q = paper_query()
        preds = q.predicates_between("A", "B")
        assert len(preds) == 1
        assert preds[0].attr_of("A") == "AB"


class TestProbeSpec:
    """Route position determines the access pattern — the core AMR fact."""

    def test_first_hop_single_attribute(self):
        q = paper_query()
        ap, bindings = q.probe_spec({"A"}, "B")
        assert ap == AccessPattern.from_attributes(q.jas_for("B"), ["AB"])
        assert bindings == (("AB", "A", "AB"),)

    def test_second_hop_two_attributes(self):
        q = paper_query()
        ap, _ = q.probe_spec({"A", "C"}, "B")
        assert set(ap.attributes) == {"AB", "BC"}

    def test_last_hop_all_attributes(self):
        q = paper_query()
        ap, _ = q.probe_spec({"A", "C", "D"}, "B")
        assert set(ap.attributes) == {"AB", "BC", "BD"}

    def test_rejects_already_joined_target(self):
        q = paper_query()
        with pytest.raises(ValueError):
            q.probe_spec({"A", "B"}, "B")

    def test_rejects_cross_product(self):
        streams = [
            StreamSchema("A", ("x",)),
            StreamSchema("B", ("x", "y")),
            StreamSchema("C", ("y",)),
        ]
        preds = [JoinPredicate("A", "x", "B", "x"), JoinPredicate("B", "y", "C", "y")]
        q = Query(streams, preds, window=5)
        with pytest.raises(ValueError, match="no predicate binds"):
            q.probe_spec({"A"}, "C")

    def test_probe_row_spec_is_aligned_with_the_pattern(self):
        q = paper_query()
        ap, sources = q.probe_row_spec(("A", "C", "D"), "B")
        assert ap.attributes == ("AB", "BC", "BD")
        assert sources == (("A", "AB"), ("C", "BC"), ("D", "BD"))
        assert q.probe_row_spec(("A", "C", "D"), "B") is q.probe_row_spec(("A", "C", "D"), "B")

    def test_probe_row_spec_cross_attribute_names(self):
        # Differently named attributes on the two sides.
        streams = [StreamSchema("A", ("ka",)), StreamSchema("B", ("kb",))]
        q = Query(streams, [JoinPredicate("A", "ka", "B", "kb")], window=5)
        ap, bindings = q.probe_spec({"A"}, "B")
        assert bindings == (("kb", "A", "ka"),)
        assert q.probe_row_spec(("A",), "B") == (ap, (("A", "ka"),))

    def test_probe_row_spec_names_the_predicates_own_stream(self):
        # T carries a payload column named like R's and S's join column;
        # the probe into R reads S.x, whatever else is called x.
        streams = [
            StreamSchema("R", ("x",)),
            StreamSchema("S", ("x", "y")),
            StreamSchema("T", ("y", "x")),
        ]
        preds = [JoinPredicate("R", "x", "S", "x"), JoinPredicate("S", "y", "T", "y")]
        q = Query(streams, preds, window=5)
        _ap, sources = q.probe_row_spec(("S", "T"), "R")
        assert sources == (("S", "x"),)

    def test_probe_row_spec_rejects_already_joined_target(self):
        with pytest.raises(ValueError, match="already joined"):
            paper_query().probe_row_spec(("A", "B"), "B")


def cross_attribute_query():
    """``test_probe_row_spec_cross_attribute_names``' query: differently
    named join attributes on the two sides."""
    streams = [StreamSchema("A", ("ka",)), StreamSchema("B", ("kb",))]
    return Query(streams, [JoinPredicate("A", "ka", "B", "kb")], window=5)


def hostile_names_query():
    """Attribute names that would break, or run, generated source if they
    were formatted into it."""
    r = ('q"uote', "back\\slash")
    s = ("__import__('os').system('exit 3')", "it's")
    t = ("'''", '"""\n')
    streams = [StreamSchema("R", r), StreamSchema("S", s), StreamSchema("T", t)]
    predicates = [
        JoinPredicate("R", r[0], "S", s[0]),
        JoinPredicate("S", s[1], "T", t[0]),
        JoinPredicate("R", r[1], "T", t[1]),
    ]
    return Query(streams, predicates, window=5)


def every_hop(q):
    """Every ``(joined, target)`` a route can take: ``joined`` in join
    order, ``target`` bound to it by a predicate."""
    names = q.stream_names
    for width in range(1, len(names)):
        for joined in itertools.permutations(names, width):
            for target in names:
                if target in joined:
                    continue
                try:
                    q.probe_row_spec(joined, target)
                except ValueError:  # a cross product: no route takes it
                    continue
                yield joined, target


class TestHopPlan:
    """The compiled row builder reads exactly what the recipe names."""

    @pytest.mark.parametrize(
        "make_query", [paper_query, cross_attribute_query, hostile_names_query]
    )
    def test_rows_equal_the_recipe(self, make_query):
        q = make_query()
        hops = list(every_hop(q))
        assert hops
        for joined, target in hops:
            partials = [
                tuple(
                    StreamTuple(s, k, {a: f"{s}.{a}#{k}" for a in q.schema(s).attributes})
                    for s in joined
                )
                for k in range(3)
            ]
            ap, build_rows = q.hop_plan(joined, target)
            spec_ap, sources = q.probe_row_spec(joined, target)
            recipe = [tuple(p[joined.index(s)][a] for s, a in sources) for p in partials]
            assert ap is spec_ap
            assert build_rows(partials) == recipe
            assert build_rows([]) == []
            assert q.hop_plan(joined, target)[1] is build_rows  # compiled once

    def test_generated_source_holds_no_string_literal(self):
        q = hostile_names_query()
        for joined, target in every_hop(q):
            _ap, sources = q.probe_row_spec(joined, target)
            positions = tuple(joined.index(s) for s, _a in sources)
            source = _row_builder_source(positions)
            assert not set(source) & {'"', "'", "\\"}, source

    def test_hop_plan_rejects_already_joined_target(self):
        with pytest.raises(ValueError, match="already joined"):
            paper_query().hop_plan(("A", "B"), "B")
