"""Shared fixtures for the AMRI reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import bit_index
from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.index_config import IndexConfiguration
from repro.core.lattice import AccessPatternLattice
from repro.experiments.parallel import RunSpec, execute_spec
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex


def spec_stats(params, scheme: str, ticks: int, training=None):
    """One spec's stats through ``execute_spec``: started from ``training``
    when one is given (shipped on the spec), untrained otherwise."""
    spec = RunSpec(params, scheme, ticks, train=training is not None, training=training)
    return execute_spec(spec).stats


@contextmanager
def column_probe_gate(candidates: int, *indexes):
    """Hold ``BitAddressIndex``'s hash-column gate at ``candidates`` for the
    block (1: every wildcard probe of a non-empty index asks the columns).

    An index reads the gate when it builds a prober and keeps the prober
    until its structure changes, so the gate governs only the ``indexes``
    passed here: their probers are dropped on entry and on exit.  At least
    one must be given.  A context manager, not ``monkeypatch``: hypothesis
    bodies cannot take function-scoped fixtures."""
    if not indexes:
        raise TypeError("column_probe_gate needs the indexes it governs")
    default = bit_index.COLUMN_PROBE_MIN_CANDIDATES
    bit_index.COLUMN_PROBE_MIN_CANDIDATES = candidates
    for index in indexes:
        index._drop_probers()
    try:
        yield
    finally:
        bit_index.COLUMN_PROBE_MIN_CANDIDATES = default
        for index in indexes:
            index._drop_probers()


def asks_columns(index, ap: AccessPattern) -> bool:
    """Whether, at gate 1, a probe of ``ap`` asks ``index``'s hash columns:
    a bit-address index, and a pattern that probes an attribute, is not a
    one-bucket point probe, and expects a candidate."""
    if not isinstance(index, bit_index.BitAddressIndex):
        return False
    plan = index.probe_plans.lookup(ap)
    point = plan.fixed and plan.point_slots is not None
    return bool(plan.n_attributes and not point and index.size >> plan.fixed_bits)


def column_asks(index) -> int:
    """Probe rows the hash columns answered or passed on to the walk."""
    return index.column_answered + index.column_walked


#: The five index classes, the bit-address family first.
INDEX_CLASSES = (
    bit_index.BitAddressIndex,
    StaticBitmapIndex,
    MultiHashIndex,
    InvertedListIndex,
    ScanIndex,
)


def build_index(cls, jas: JoinAttributeSet):
    """A fresh index of any of the five classes over ``jas``: two bits per
    attribute where the class has a key map, modules on the first attribute
    and the first two where it has modules."""
    if issubclass(cls, bit_index.BitAddressIndex):
        return cls(IndexConfiguration(jas, [2] * len(jas)))
    if cls is MultiHashIndex:
        names = list(jas.names)
        return cls(jas, [AccessPattern.from_attributes(jas, names[:n]) for n in (1, 2)])
    return cls(jas)


@pytest.fixture
def jas3() -> JoinAttributeSet:
    """The canonical 3-attribute JAS used by the paper's examples."""
    return JoinAttributeSet(["A", "B", "C"])


@pytest.fixture
def jas4() -> JoinAttributeSet:
    return JoinAttributeSet(["A", "B", "C", "D"])


@pytest.fixture
def lattice3(jas3) -> AccessPatternLattice:
    return AccessPatternLattice(jas3)


@pytest.fixture
def ap3(jas3):
    """Pattern factory over jas3: ap3('A', 'C') -> <A,*,C>."""

    def make(*names: str) -> AccessPattern:
        return AccessPattern.from_attributes(jas3, names)

    return make


@pytest.fixture
def table2_frequencies(ap3):
    """The Table II worked-example frequency table."""
    return {
        ap3("A"): 0.04,
        ap3("B"): 0.10,
        ap3("C"): 0.10,
        ap3("A", "B"): 0.04,
        ap3("A", "C"): 0.16,
        ap3("B", "C"): 0.10,
        ap3("A", "B", "C"): 0.46,
    }
