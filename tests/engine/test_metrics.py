"""Tests for the metrics registry (the cost ledger) and its JSONL export."""

import json
import math
import pickle

import pytest

from repro.engine.metrics import COST_METRIC, MetricsRegistry, RegistrySnapshot
from repro.engine.metrics_export import (
    render_jsonl,
    snapshot_records,
    write_jsonl,
    write_metrics,
)
from repro.engine.resources import ResourceMeter
from tests.conftest import series


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


def snapshot_jsonl(snapshot):
    return render_jsonl(snapshot_records(snapshot))


class TestRegistrySeries:
    def test_label_canonicalisation(self):
        """A ledger key becomes its label pairs: a ``None`` label is
        dropped, so ``stream=None`` and an omitted ``stream`` are one
        series, and the labels come out sorted by name."""
        reg = MetricsRegistry()
        reg.charge(1.0, "router", phase="decide")
        reg.charge(2.0, "router", stream=None, phase="decide")
        reg.charge(4.0, "index", stream="A", index_kind="scan", phase="probe")
        snap = reg.snapshot()
        assert [(s.labels, s.value) for s in snap.series] == [
            (
                (
                    ("component", "index"),
                    ("index_kind", "scan"),
                    ("phase", "probe"),
                    ("stream", "A"),
                ),
                4.0,
            ),
            ((("component", "router"), ("phase", "decide")), 3.0),
        ]

    def test_charge_updates_cost_total_and_series(self):
        reg = MetricsRegistry()
        reg.charge(2.5, "index", stream="A", index_kind="bit_address", phase="probe")
        reg.charge(1.5, "index", stream="A", index_kind="bit_address", phase="probe")
        reg.charge(1.0, "router", phase="decide")
        assert reg.cost_total == 5.0
        snap = reg.snapshot()
        probe = series(
            snap, COST_METRIC, component="index", stream="A",
            index_kind="bit_address", phase="probe",
        )
        assert probe is not None and probe.value == 4.0
        assert snap.series_total() == 5.0
        assert snap.cost_by("component") == {("index",): 4.0, ("router",): 1.0}
        # Missing labels group under '-'.
        assert snap.cost_by("stream") == {("A",): 4.0, ("-",): 1.0}

    def test_snapshot_is_frozen_sorted_and_picklable(self):
        reg = MetricsRegistry()
        reg.charge(1.0, "router", phase="decide")
        reg.charge(1.0, "index", stream="B", phase="probe")
        reg.charge(1.0, "index", stream="A", phase="probe")
        snap = reg.snapshot()
        keys = [(s.name, s.labels) for s in snap.series]
        assert keys == sorted(keys)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_one_key_is_one_series(self):
        """Charges to one key add up in one series; any label that differs
        (here only the phase) is another series."""
        reg = MetricsRegistry()
        for cost in (1.0, 2.0, 4.0):
            reg.charge(cost, "index", stream="A", index_kind="scan", phase="probe")
        reg.charge(8.0, "index", stream="A", index_kind="scan", phase="insert")
        values = {dict(s.labels)["phase"]: s.value for s in reg.snapshot().series}
        assert values == {"probe": 7.0, "insert": 8.0}

    def test_each_label_keeps_its_own_name(self):
        """The key is positional: one value under two different labels is
        two series, each under the label it was charged with."""
        reg = MetricsRegistry()
        reg.charge(1.0, "index", stream="X")
        reg.charge(2.0, "index", index_kind="X")
        reg.charge(4.0, "index", phase="X")
        assert [(s.labels, s.value) for s in reg.snapshot().series] == [
            ((("component", "index"), ("index_kind", "X")), 2.0),
            ((("component", "index"), ("phase", "X")), 4.0),
            ((("component", "index"), ("stream", "X")), 1.0),
        ]

    def test_cost_total_replays_the_meters_sum(self):
        """``cost_total`` adds the meter's floats in the meter's order, so
        the two agree bit for bit even where float addition does not
        associate; the per-series regrouping agrees to rounding."""
        costs = [0.1, 1e16, 0.2, -0.0, 0.3, 1.0, 1e-9, 0.7] * 5
        meter = ResourceMeter(capacity=1e18)
        reg = MetricsRegistry()
        for i, cost in enumerate(costs):
            meter.spend(cost)
            reg.charge(cost, "index", stream="AB"[i % 2], phase="probe")
        assert reg.cost_total == meter.total_spent
        assert math.isclose(reg.snapshot().series_total(), meter.total_spent, rel_tol=1e-12)

    def test_a_zero_charge_creates_a_zero_series(self):
        """A zero charge still opens its series: the output charge that runs
        whenever a registry is attached lands as a zero-valued series."""
        reg = MetricsRegistry()
        reg.charge(0.0, "output", phase="emit")
        snap = reg.snapshot()
        assert [(s.labels, s.value) for s in snap.series] == [
            ((("component", "output"), ("phase", "emit")), 0.0)
        ]
        assert snap.cost_total == 0.0

    def test_an_unused_registry_snapshots_empty(self):
        assert MetricsRegistry().snapshot() == RegistrySnapshot()
        assert RegistrySnapshot().series_total() == 0.0
        assert RegistrySnapshot().cost_by("component") == {}

    def test_snapshot_is_detached_from_later_charges(self):
        reg = MetricsRegistry()
        reg.charge(1.0, "router", phase="decide")
        before = reg.snapshot()
        reg.charge(2.0, "router", phase="decide")
        reg.charge(3.0, "index", stream="A", phase="probe")
        assert [s.value for s in before.series] == [1.0]
        assert before.cost_total == 1.0
        assert reg.snapshot().cost_total == 6.0

    def test_cost_by_groups_by_several_labels_and_by_none(self):
        reg = MetricsRegistry()
        reg.charge(1.0, "index", stream="A", phase="probe")
        reg.charge(2.0, "index", stream="B", phase="probe")
        reg.charge(4.0, "index", stream="A", phase="insert")
        reg.charge(8.0, "router", phase="probe")
        snap = reg.snapshot()
        assert snap.cost_by("component", "phase") == {
            ("index", "insert"): 4.0,
            ("index", "probe"): 3.0,
            ("router", "probe"): 8.0,
        }
        assert snap.cost_by() == {(): 15.0}


@pytest.fixture
def populated_registry():
    reg = MetricsRegistry()
    reg.charge(2.5, "index", stream="A", index_kind="bit_address", phase="probe")
    reg.charge(0.2, "router", phase="decide")
    reg.charge(7.0, "index", stream="A", index_kind="bit_address", phase="insert")
    return reg


class TestExporters:
    def test_jsonl_round_trip(self, populated_registry):
        snap = populated_registry.snapshot()
        records = parse_jsonl(snapshot_jsonl(snap))
        series = [r for r in records if r["record"] == "series"]
        assert len(series) == len(snap.series)
        aggregate = records[-1]
        assert aggregate["record"] == "aggregate"
        assert aggregate["cost_total"] == snap.cost_total
        labels = {"component": "router", "phase": "decide"}
        router = next(r for r in series if r["labels"] == labels)
        assert router == {
            "record": "series",
            "name": COST_METRIC,
            "kind": "counter",
            "labels": labels,
            "value": 0.2,
        }

    def test_jsonl_replaces_non_finite_floats(self):
        reg = MetricsRegistry()
        reg.charge(math.inf, "router", phase="decide")
        records = parse_jsonl(snapshot_jsonl(reg.snapshot()))
        assert records[0]["value"] is None
        assert records[-1]["cost_total"] is None

    def test_write_metrics_file(self, populated_registry, tmp_path):
        snap = populated_registry.snapshot()
        mpath = write_metrics(tmp_path / "m.jsonl", snap)
        assert mpath.read_text() == snapshot_jsonl(snap)
        assert parse_jsonl(mpath.read_text())[-1] == {
            "record": "aggregate",
            "cost_total": snap.cost_total,
            "series": 3,
        }

    def test_an_empty_snapshot_exports_only_the_aggregate(self, tmp_path):
        snap = RegistrySnapshot()
        assert snapshot_records(snap) == [
            {"record": "aggregate", "cost_total": 0.0, "series": 0}
        ]
        path = write_metrics(tmp_path / "empty.jsonl", snap)
        assert parse_jsonl(path.read_text()) == snapshot_records(snap)

    def test_render_jsonl_sorts_keys_and_ends_every_line(self):
        text = render_jsonl([{"b": 1, "a": [2, 3]}, {"z": None, "y": "s"}])
        assert text == '{"a": [2, 3], "b": 1}\n{"y": "s", "z": null}\n'
        assert render_jsonl([]) == ""

    def test_write_jsonl_makes_parent_directories(self, tmp_path):
        path = write_jsonl(tmp_path / "a" / "b" / "r.jsonl", [{"k": 1}])
        assert path.read_text() == '{"k": 1}\n'
        empty = write_jsonl(tmp_path / "c" / "none.jsonl", [])
        assert empty.exists() and empty.read_text() == ""

