"""The value contract, over the five index classes: an index stores and
probes values of ``EXACT_KEY_TYPES`` that are not NaN, and refuses every
other by name before anything changes.

One derandomised property interleaves exact inserts and removes with
refused inserts and refused probes.  After each refusal the index must
read exactly as a twin that never saw the refused value: the same size,
the same accountant, and on every pattern the same matches with the same
charges.  The strategies are module constants so other suites can draw
the same values.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.indexes.base import UnkeyableValueError
from tests.conftest import INDEX_CLASSES, build_index

JAS = JoinAttributeSet(["A", "B", "C"])
PATTERNS = [AccessPattern.from_mask(JAS, mask) for mask in range(JAS.full_mask + 1)]


class Text(str):
    """A ``str`` subclass: equal to its text and hashed like it, but free
    to redefine ``==``, so no index takes it."""


#: A stand-in for "the attribute is not there at all".
MISSING = object()

#: Values every index stores: equal across types (``1 == 1.0 == True``),
#: equal zeros of two signs, ``"a" != b"a"``.
EXACT_VALUES = st.sampled_from([0, 1, 1.0, True, -0.0, 2, 0.5, "a", b"a", None])
#: Values every index refuses, each a different way to be outside the
#: contract: unhashable, a numeric type of its own, a numpy scalar, NaN, a
#: subclass of an exact type, and no value at all.
REFUSED_VALUES = st.sampled_from(
    [[1], Decimal(1), np.int64(1), float("nan"), Text("a"), MISSING]
)

exact_row = st.tuples(EXACT_VALUES, EXACT_VALUES, EXACT_VALUES)
operation = st.one_of(
    st.tuples(st.just("insert"), exact_row),
    st.tuples(st.just("insert"), exact_row),  # twice: states of several tuples
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("refused insert"), exact_row, st.integers(0, 2), REFUSED_VALUES),
    st.tuples(
        st.just("refused probe"),
        st.sampled_from(["search", "search_batch"]),
        exact_row,
        st.integers(0, 2),
        st.integers(0, 7),
        REFUSED_VALUES,
    ),
)


def answers(index, rows):
    """Per pattern, each row's matches (by identity) and charges."""
    out = []
    for ap in PATTERNS:
        column = [tuple(row[JAS.position(a)] for a in ap.attributes) for row in rows]
        for outcome in index.search_batch(ap, column):
            out.append(
                (
                    [id(m) for m in outcome.matches],
                    outcome.buckets_visited,
                    outcome.tuples_examined,
                    outcome.used_full_scan,
                )
            )
    return out


def with_value(row, position, value):
    """``row`` as an item, ``value`` at ``position`` (absent for ``MISSING``)."""
    item = dict(zip(JAS.names, row))
    name = JAS.names[position]
    if value is MISSING:
        del item[name]
    else:
        item[name] = value
    return item


def assert_refused(raised, position, value, *, inserted=False):
    """Refused by name: the attribute and the value's type, or for a
    missing attribute a ``KeyError`` (on insert, ``KeyError(attribute)``)."""
    name = JAS.names[position]
    if value is MISSING:
        assert isinstance(raised.value, KeyError)
        if inserted:
            assert raised.value.args == (name,)
    else:
        err = raised.value
        assert isinstance(err, UnkeyableValueError)
        assert (err.attribute, err.value_type) == (name, type(value))
        assert repr(name) in str(err)


def refuse_a_probe(index, how, row, position, extra, value):
    """Probe a pattern over ``position`` (plus the positions ``extra``
    names) with ``value`` there; the refused row comes first in a column,
    so the check meets it before any row equal to it is answered."""
    ap = AccessPattern.from_mask(JAS, extra | (1 << position))
    item = with_value(row, position, value)
    with pytest.raises((UnkeyableValueError, KeyError)) as raised:
        if how == "search":
            index.search(ap, item)
        else:
            refused = tuple(item[a] for a in ap.attributes if a in item)
            index.search_batch(ap, [refused, tuple(row[JAS.position(a)] for a in ap.attributes)])
    assert_refused(raised, position, value)


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(ops=st.lists(operation, min_size=4, max_size=16))
def test_a_refusal_leaves_the_index_as_a_twin_that_never_saw_it(cls, ops):
    index, twin = build_index(cls, JAS), build_index(cls, JAS)
    probes = [(0, 0, 0), (1, 1, 1), (1.0, True, 0.5), ("a", b"a", None)]
    stored = []
    for kind, *args in ops:
        if kind == "insert":
            item = dict(zip(JAS.names, args[0]))
            index.insert(item)
            twin.insert(item)
            stored.append(item)
            continue
        if kind == "remove":
            if stored:
                item = stored.pop(args[0] % len(stored))
                index.remove(item)
                twin.remove(item)
            continue
        if kind == "refused insert":
            row, position, value = args
            item = with_value(row, position, value)
            with pytest.raises((UnkeyableValueError, KeyError)) as raised:
                index.insert(item)
            assert_refused(raised, position, value, inserted=True)
            with pytest.raises(KeyError, match="never inserted"):
                index.remove(item)
        else:
            refuse_a_probe(index, *args)
        assert index.size == twin.size == len(stored)
        assert index.accountant == twin.accountant
        rows = probes + [tuple(item.values()) for item in stored[:3]]
        assert answers(index, rows) == answers(twin, rows)
