"""Tests for the Figure 2 query-template parser."""

import pytest

from repro.engine.parser import QueryParseError, parse_query

PAPER_EXAMPLE = """
Select A.*, B.*, C.*
From StreamA A, StreamB B, StreamC C
Where A.A1 = B.A1 and B.A2 = C.A2
Window 10
"""


class TestPaperExample:
    def test_parses(self):
        q = parse_query(PAPER_EXAMPLE)
        assert q.stream_names == ("StreamA", "StreamB", "StreamC")
        assert q.window == 10
        assert len(q.predicates) == 2

    def test_jas_derivation(self):
        q = parse_query(PAPER_EXAMPLE)
        assert list(q.jas_for("StreamB").names) == ["A1", "A2"]
        assert list(q.jas_for("StreamA").names) == ["A1"]

    def test_aliases_resolve_to_stream_names(self):
        q = parse_query(PAPER_EXAMPLE)
        pred = q.predicates[0]
        assert pred.left_stream == "StreamA" and pred.right_stream == "StreamB"


class TestClauses:
    def test_case_insensitive_keywords(self):
        q = parse_query("SELECT a.*, b.* FROM s1 a, s2 b WHERE a.x = b.y WINDOW 5")
        assert q.window == 5

    def test_single_line(self):
        q = parse_query("select A.* , B.* from A, B where A.k = B.k window 3")
        assert q.stream_names == ("A", "B")

    def test_default_window(self):
        q = parse_query("select A.*, B.* from A, B where A.k = B.k", default_window=42)
        assert q.window == 42

    def test_alias_defaults_to_stream_name(self):
        q = parse_query("select A.* from A, B where A.k = B.k")
        assert set(q.stream_names) == {"A", "B"}

    def test_trailing_semicolon(self):
        q = parse_query("select A.* from A, B where A.k = B.k window 7;")
        assert q.window == 7

    def test_star_projection(self):
        q = parse_query("select * from A, B where A.k = B.k")
        assert len(q.predicates) == 1

    def test_explicit_schema_extends_attributes(self):
        q = parse_query(
            "select A.* from A, B where A.k = B.k",
            schemas={"A": ["k", "payload"]},
        )
        assert "payload" in q.schema("A").attributes
        # B inferred
        assert q.schema("B").attributes == ("k",)


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(QueryParseError):
            parse_query("select * where A.k = B.k")

    def test_missing_where(self):
        with pytest.raises(QueryParseError, match="WHERE"):
            parse_query("select A.* from A, B")

    def test_non_equi_join_predicate(self):
        # "A.k < B.k" is not an equi-join; it parses as a filter attempt whose
        # "constant" is not a literal, and is rejected.
        with pytest.raises(QueryParseError, match="not a number or quoted string"):
            parse_query("select A.* from A, B where A.k < B.k")

    def test_unknown_alias_in_where(self):
        with pytest.raises(QueryParseError, match="unknown alias"):
            parse_query("select A.* from A, B where A.k = Z.k")

    def test_unknown_alias_in_select(self):
        with pytest.raises(QueryParseError, match="unknown alias"):
            parse_query("select Z.* from A, B where A.k = B.k")

    def test_duplicate_alias(self):
        with pytest.raises(QueryParseError, match="duplicate alias"):
            parse_query("select A.* from S1 A, S2 A where A.k = A.j")

    def test_bad_window(self):
        with pytest.raises(QueryParseError, match="WINDOW"):
            parse_query("select A.* from A, B where A.k = B.k window soon")

    def test_bad_projection(self):
        with pytest.raises(QueryParseError, match="unsupported projection"):
            parse_query("select median(A.k) from A, B where A.k = B.k")

    def test_schema_missing_predicate_attr(self):
        with pytest.raises(QueryParseError, match="lacks predicate attributes"):
            parse_query(
                "select A.* from A, B where A.k = B.k",
                schemas={"A": ["other"]},
            )

    def test_malformed_from_entry(self):
        with pytest.raises(QueryParseError, match="malformed FROM"):
            parse_query("select A.* from A as x y, B where A.k = B.k")


class TestEndToEnd:
    def test_parsed_query_executes(self):
        """A parsed query drives the real engine."""
        from repro.core.assessment import SRIA
        from repro.core.bit_index import make_bit_index
        from repro.core.tuner import NullTuner
        from repro.engine.executor import AMRExecutor
        from repro.engine.resources import ResourceMeter
        from repro.engine.router import GreedyAdaptiveRouter
        from repro.storage import StateStore
        from repro.engine.tuples import StreamTuple

        q = parse_query("select L.*, R.* from L, R where L.k = R.k window 6")
        stems = {
            s: StateStore(
                s,
                q.jas_for(s),
                make_bit_index(q.jas_for(s), [3]),
                q.window,
                NullTuner(SRIA(q.jas_for(s))),
            )
            for s in q.stream_names
        }
        executor = AMRExecutor(
            q,
            stems,
            GreedyAdaptiveRouter(q, explore_prob=0.0),
            ResourceMeter(capacity=1e9, memory_budget=1 << 30),
            arrival_rates={s: 1.0 for s in q.stream_names},
        )
        plan = {
            0: [StreamTuple("L", 0, {"k": 1})],
            1: [StreamTuple("R", 1, {"k": 1})],
        }
        stats = executor.run(3, lambda t: plan.get(t, []))
        assert stats.outputs == 1


class TestSelectionPredicates:
    def test_filter_parsed(self):
        q = parse_query(
            "select A.* from A, B where A.k = B.k and A.prio > 5 window 4"
        )
        assert len(q.filters) == 1
        f = q.filters[0]
        assert (f.stream, f.attr, f.op, f.value) == ("A", "prio", ">", 5)

    def test_filter_constant_types(self):
        q = parse_query(
            "select A.* from A, B where A.k = B.k and A.x = 1.5 and B.tag = 'hot'"
        )
        values = {f.attr: f.value for f in q.filters}
        assert values == {"x": 1.5, "tag": "hot"}

    def test_filter_attr_in_inferred_schema(self):
        q = parse_query("select A.* from A, B where A.k = B.k and A.prio >= 2")
        assert "prio" in q.schema("A").attributes

    def test_passes_filters(self):
        q = parse_query("select A.* from A, B where A.k = B.k and A.prio != 0")
        assert q.passes_filters("A", {"k": 1, "prio": 3})
        assert not q.passes_filters("A", {"k": 1, "prio": 0})
        assert q.passes_filters("B", {"k": 1})  # unfiltered stream

    def test_only_filters_rejected(self):
        with pytest.raises(QueryParseError, match="no join predicates"):
            parse_query("select A.* from A, B where A.prio > 5")

    def test_filter_pushdown_in_engine(self):
        from repro.core.assessment import SRIA
        from repro.core.bit_index import make_bit_index
        from repro.core.tuner import NullTuner
        from repro.engine.executor import AMRExecutor
        from repro.engine.resources import ResourceMeter
        from repro.engine.router import GreedyAdaptiveRouter
        from repro.storage import StateStore
        from repro.engine.tuples import StreamTuple

        q = parse_query(
            "select L.*, R.* from L, R where L.k = R.k and L.prio > 1 window 6"
        )
        stems = {
            s: StateStore(
                s,
                q.jas_for(s),
                make_bit_index(q.jas_for(s), [3]),
                q.window,
                NullTuner(SRIA(q.jas_for(s))),
            )
            for s in q.stream_names
        }
        executor = AMRExecutor(
            q,
            stems,
            GreedyAdaptiveRouter(q, explore_prob=0.0),
            ResourceMeter(capacity=1e9, memory_budget=1 << 30),
            arrival_rates={s: 1.0 for s in q.stream_names},
        )
        plan = {
            0: [StreamTuple("L", 0, {"k": 1, "prio": 0})],  # filtered out
            1: [StreamTuple("L", 1, {"k": 1, "prio": 9})],  # admitted
            2: [StreamTuple("R", 2, {"k": 1})],
        }
        stats = executor.run(4, lambda t: plan.get(t, []))
        assert stats.filtered == 1
        assert stats.outputs == 1
        assert stems["L"].size == 1  # the filtered tuple never entered the state


class TestAggregates:
    def test_count_star(self):
        q = parse_query("select count(*) from A, B where A.k = B.k")
        assert len(q.aggregates) == 1
        assert q.aggregates[0].func == "count" and q.aggregates[0].attr is None

    def test_attribute_aggregates(self):
        q = parse_query(
            "select count(*), sum(A.x), avg(B.y), min(A.x), max(B.y) "
            "from A, B where A.k = B.k"
        )
        funcs = [a.func for a in q.aggregates]
        assert funcs == ["count", "sum", "avg", "min", "max"]

    def test_aggregate_attr_lands_in_schema(self):
        q = parse_query("select sum(A.x) from A, B where A.k = B.k")
        assert "x" in q.schema("A").attributes

    def test_mixed_projection_and_aggregate(self):
        q = parse_query("select A.*, count(*) from A, B where A.k = B.k")
        assert len(q.aggregates) == 1

    def test_unknown_alias_in_aggregate(self):
        with pytest.raises(QueryParseError, match="unknown alias"):
            parse_query("select sum(Z.x) from A, B where A.k = B.k")

    def test_plain_query_has_no_aggregates(self):
        q = parse_query("select A.* from A, B where A.k = B.k")
        assert q.aggregates == ()
