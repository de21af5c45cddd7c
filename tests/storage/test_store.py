"""Tests for the StateStore storage layer — the paper's STeM operator
(insert / expire / probe / tune wiring, admission ordering, degradation)."""

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import SRIA
from repro.core.bit_index import make_bit_index
from repro.core.selector import IndexSelector
from repro.core.tuner import AMRITuner, NullTuner, TuningContext
from repro.engine.tuples import StreamTuple
from repro.engine.window import SlidingWindow
from repro.indexes.base import CostParams, UnkeyableValueError
from repro.indexes.scan_index import ScanIndex
from repro.storage import StateStore


def tup(t, a=1, b=2, c=3):
    return StreamTuple("S", t, {"A": a, "B": b, "C": c})


@pytest.fixture
def store(jas3):
    index = make_bit_index(jas3, [2, 2, 2])
    return StateStore("S", jas3, index, window=5, tuner=NullTuner(SRIA(jas3)))


class TestOperator:
    def test_insert_and_size(self, store):
        store.insert(tup(0), 0)
        store.insert(tup(1), 1)
        assert store.size == 2

    def test_expire_removes_from_index(self, store, ap3):
        old = tup(0, a=7)
        store.insert(old, 0)
        store.insert(tup(6, a=7), 6)
        assert store.expire(6) == 1
        out = store.probe(ap3("A"), {"A": 7})
        assert len(out.matches) == 1

    def test_probe_records_pattern(self, store, ap3):
        store.probe(ap3("A", "B"), {"A": 1, "B": 2})
        store.probe(ap3("A"), {"A": 1})
        assessor = store.tuner.assessor
        assert assessor.n_requests == 2
        assert assessor.frequencies()[ap3("A", "B")] == 0.5

    def test_payload_bytes(self, store):
        store.insert(tup(0), 0)
        assert store.payload_bytes == CostParams.tuple_bytes

    def test_refuses_a_tuple_of_another_stream(self, store):
        store.insert(tup(0), 0)
        accountant = store.index.accountant.snapshot()
        stranger = StreamTuple("T", 1, {"A": 1, "B": 2, "C": 3})
        with pytest.raises(ValueError, match="'S'.*'T'"):
            store.insert(stranger, 1)
        # Refused before window or index saw it.
        assert store.size == len(store.window) == 1
        assert store.index.accountant == accountant

    def test_rejects_mismatched_index(self, jas3):
        other = JoinAttributeSet(["X"])
        with pytest.raises(ValueError):
            StateStore("S", jas3, ScanIndex(other), window=5)

    def test_tune_delegates(self, jas3, ap3):
        index = make_bit_index(jas3, [0, 0, 6])
        tuner = AMRITuner(index, SRIA(jas3), IndexSelector(jas3, 12), theta=0.1)
        store = StateStore("S", jas3, index, window=10, tuner=tuner)
        for i in range(100):
            store.insert(tup(0, a=i % 40, b=i, c=i), 0)
        for _ in range(200):
            store.probe(ap3("A"), {"A": 3})
        report = store.tune(
            TuningContext(lambda_d=10, window=10, horizon=50, domain_bits={"A": 8})
        )
        assert report is not None and report.migrated
        assert store.index.config.bits[jas3.position("A")] > 0

    def test_default_tuner_is_null(self, jas3):
        store = StateStore("S", jas3, make_bit_index(jas3, [1, 1, 1]), window=3)
        assert store.tune(TuningContext(lambda_d=1, window=1, horizon=1)) is None


class TestInsertOrdering:
    @pytest.mark.parametrize(
        "refused, error",
        [
            (tup(2), ValueError),  # earlier than the last arrival, at 3
            (StreamTuple("S", 4, {"A": 1, "B": [2], "C": 3}), UnkeyableValueError),
            (StreamTuple("S", 4, {"A": 1, "B": float("nan"), "C": 3}), UnkeyableValueError),
            (StreamTuple("S", 4, {"A": 1, "B": 2}), KeyError),
        ],
        ids=["out-of-order", "list", "nan", "missing"],
    )
    def test_a_refused_arrival_leaves_window_and_index_as_they_were(self, jas3, refused, error):
        """Every refusal comes before window or index changes: there is no
        undo path to get wrong."""
        store = StateStore("S", jas3, make_bit_index(jas3, [2, 2, 2]), window=10)
        first = tup(3)
        store.insert(first, 3)
        accountant = store.index.accountant.snapshot()
        with pytest.raises(error):
            store.insert(refused, refused.arrived_at)
        assert store.size == len(store.window) == 1
        assert next(iter(store.window)) is first
        assert store.index.accountant == accountant
        store.insert(tup(4), 4)  # the state takes the next arrival as before
        assert store.size == len(store.window) == 2

    def test_an_unkeyable_value_is_refused_by_stream_attribute_and_type(self, jas3):
        store = StateStore("S", jas3, ScanIndex(jas3), window=10)
        with pytest.raises(UnkeyableValueError) as refused:
            store.insert(StreamTuple("S", 0, {"A": 1, "B": 2, "C": [3]}), 0)
        err = refused.value
        assert (err.stream, err.attribute, err.value_type) == ("S", "C", list)
        assert str(err).startswith("stream 'S': join attribute 'C' holds a value of type list")

    def test_evicted_tuples_are_unindexed(self, jas3, ap3):
        store = StateStore("S", jas3, ScanIndex(jas3), window=SlidingWindow(2))
        first = tup(0, a=7)
        store.insert(first, 0)
        store.insert(tup(1, a=7), 1)
        store.insert(tup(2, a=7), 2)
        assert store.expire(2) == 1  # evicts `first`
        out = store.probe(ap3("A"), {"A": 7})
        assert len(out.matches) == 2
        assert all(m is not first for m in out.matches)


class TestProbeInputs:
    """Malformed and unusual probe input: by name through ``probe``, as a
    one-row column through ``probe_batch``."""

    @staticmethod
    def probe_one(store, how, ap, values):
        if how == "probe":
            return store.probe(ap, values)
        return store.probe_batch(ap, [tuple(values[a] for a in ap.attributes if a in values)])[0]

    @pytest.mark.parametrize("how", ["probe", "probe_batch"])
    def test_row_missing_a_required_attribute_raises(self, jas3, ap3, how):
        store = StateStore("S", jas3, make_bit_index(jas3, [2, 2, 2]), window=100)
        store.insert(tup(0), 0)
        before = store.index.accountant.snapshot()
        # Both spellings name the pattern, and raise before any charge.
        with pytest.raises(KeyError, match="required by <A, B, \\*>"):
            self.probe_one(store, how, ap3("A", "B"), {"A": 1})
        assert store.index.accountant == before

    @pytest.mark.parametrize("how", ["probe", "probe_batch"])
    def test_row_with_a_value_too_many_raises(self, jas3, ap3, how):
        store = StateStore("S", jas3, make_bit_index(jas3, [2, 2, 2]), window=100)
        store.insert(tup(0), 0)
        before = store.index.accountant.snapshot()
        if how == "probe":  # by name there is no "too many": extras are ignored
            assert store.probe(ap3("A"), {"A": 0, "B": 5}).matches == store.probe(
                ap3("A"), {"A": 0}
            ).matches
        else:
            with pytest.raises(KeyError, match="required by <A, \\*, \\*>"):
                store.probe_batch(ap3("A"), [(0,), (0, 5)])
            assert store.index.accountant == before

    @pytest.mark.parametrize("how", ["probe", "probe_batch"])
    def test_foreign_jas_pattern_raises(self, jas3, how):
        store = StateStore("S", jas3, make_bit_index(jas3, [2, 2, 2]), window=100)
        store.insert(tup(0), 0)
        before = store.index.accountant.snapshot()
        foreign = AccessPattern.from_attributes(JoinAttributeSet(["A", "X"]), ["A"])
        with pytest.raises(ValueError, match="different JAS"):
            self.probe_one(store, how, foreign, {"A": 0})
        assert store.index.accountant == before

    @pytest.mark.parametrize("how", ["probe", "probe_batch"])
    def test_unkeyable_probe_values_are_refused(self, jas3, ap3, how):
        # The scan index keys nothing, and refuses what every index refuses:
        # a hashable tuple value and an unhashable list value alike, before
        # any charge and before the assessor records the request.
        store = StateStore("S", jas3, ScanIndex(jas3), window=100, tuner=NullTuner(SRIA(jas3)))
        store.insert(tup(0), 0)
        before = store.index.accountant.snapshot()
        for value in ((1, 2), [1, 2]):
            with pytest.raises(UnkeyableValueError, match="'A' holds a value of type (tuple|list)"):
                self.probe_one(store, how, ap3("A", "B"), {"A": value, "B": 2})
        assert store.index.accountant == before
        assert store.tuner.assessor.n_requests == 0


class TestDegradeToScan:
    def make_store(self, jas3, n=8):
        index = make_bit_index(jas3, [2, 2, 2])
        assessor = SRIA(jas3)
        tuner = AMRITuner(index, assessor, IndexSelector(jas3, 6), theta=0.1)
        store = StateStore("S", jas3, index, window=1000, tuner=tuner)
        for i in range(n):
            store.insert(tup(i, a=i % 4), i)
        return store, assessor

    def test_accountant_invariants(self, jas3):
        store, _ = self.make_store(jas3, n=8)
        acct = store.index.accountant
        moves_before = acct.moves
        inserts_before = acct.inserts

        relocated = store.degrade_to_scan()

        assert relocated == 8
        assert store.degraded
        # The old structure's bytes are released wholesale; the fallback
        # keeps exactly one reference slot per live tuple.
        assert acct.index_bytes == 8 * CostParams.bucket_slot_bytes
        # Each live tuple is charged one move (the relocation) and one
        # insert (the fallback genuinely stores it).
        assert acct.moves == moves_before + 8
        assert acct.inserts == inserts_before + 8

    def test_second_call_is_a_noop(self, jas3):
        store, _ = self.make_store(jas3)
        store.degrade_to_scan()
        snapshot = store.index.accountant.snapshot()
        assert store.degrade_to_scan() == 0
        assert store.index.accountant == snapshot

    def test_assessor_survives_into_null_tuner(self, jas3, ap3):
        store, assessor = self.make_store(jas3)
        store.probe(ap3("A"), {"A": 1})
        store.degrade_to_scan()
        assert isinstance(store.tuner, NullTuner)
        assert store.tuner.assessor is assessor
        store.probe(ap3("A"), {"A": 1})
        assert assessor.n_requests == 2  # still recording after degradation

    def test_post_degrade_probes_charge_full_scan(self, jas3, ap3):
        store, _ = self.make_store(jas3, n=8)
        store.degrade_to_scan()
        acct = store.index.accountant
        examined_before = acct.tuples_examined
        out = store.probe(ap3("A"), {"A": 1})
        assert out.used_full_scan
        assert out.tuples_examined == 8
        assert acct.tuples_examined == examined_before + 8


class TestFacade:
    def test_state_store_describe(self, jas3):
        store = StateStore("S", jas3, ScanIndex(jas3), window=5)
        assert store.describe().startswith("StateStore(S")

    def test_degraded_is_a_capability_lookup_not_isinstance(self, jas3):
        class CustomScan(ScanIndex):
            pass

        store = StateStore("S", jas3, CustomScan(jas3), window=5)
        assert store.degraded
