"""Partitioned execution: k>1 determinism (serial == pool) and the
deterministic merge of stats, events, and metrics snapshots.  The k=1
identity over the golden corpus lives in ``test_fleet_differential.py``'s
mode-conformance matrix."""

import pytest

from repro.engine.kernel import (
    PartitionedEngine,
    default_partitioner,
    merge_event_timelines,
    merge_run_stats,
)
from repro.engine.metrics import (
    MetricsRegistry,
    RegistrySnapshot,
    SeriesSnapshot,
    merge_snapshots,
)
from repro.engine.stats import RunStats, ThroughputSample
from repro.engine.tracing import EventLog
from repro.engine.tuples import StreamTuple
from repro.experiments.golden import snapshot_fingerprint, stats_fingerprint
from repro.experiments.harness import run_scheme_partitioned
from repro.experiments.parallel import RunSpec, execute_spec, run_parallel
from repro.workloads.scenarios import PaperScenario, scenario_params

TICKS = 30


def small_params(seed=7):
    return scenario_params("paper-small", seed)


class TestPartitioner:
    def items(self, n=60):
        return [
            StreamTuple("A", t, {"k": t % 11, "pa": t % 5}) for t in range(n)
        ]

    def test_covers_all_partitions_and_is_stable(self):
        part = default_partitioner(3)
        first = [part(item) for item in self.items()]
        second = [part(item) for item in self.items()]
        assert first == second  # value-hash: same tuple, same slot, always
        assert set(first) == {0, 1, 2}

    def test_partitions_are_disjoint_and_exhaustive(self):
        part = default_partitioner(4)
        items = self.items()
        slices = [[i for i in items if part(i) == p] for p in range(4)]
        assert sum(len(s) for s in slices) == len(items)

    def test_attribute_subset_keys_on_join_attribute(self):
        part = default_partitioner(5, attributes=["k"])
        a = StreamTuple("A", 0, {"k": 3, "pa": 1})
        b = StreamTuple("B", 9, {"k": 3, "pb": 2})
        assert part(a) == part(b)  # same join key → same partition

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            default_partitioner(0)


class TestMergeRunStats:
    def stats(self, **kw):
        s = RunStats()
        for name, value in kw.items():
            setattr(s, name, value)
        return s

    def test_counters_sum(self):
        merged = merge_run_stats(
            [self.stats(outputs=3, probes=10), self.stats(outputs=4, probes=1)]
        )
        assert merged.outputs == 7
        assert merged.probes == 11
        assert merged.died_at is None

    def test_earliest_death_wins_with_partition_prefix(self):
        a = self.stats(died_at=20, death_reason="oom a")
        b = self.stats(died_at=5, death_reason="oom b")
        merged = merge_run_stats([a, b, self.stats()])
        assert merged.died_at == 5
        assert merged.death_reason == "partition 1: oom b"

    def test_samples_merge_last_known_values(self):
        a = RunStats()
        a.samples = [
            ThroughputSample(0, outputs=1, cost_spent=10.0, memory_bytes=100, backlog=2),
            ThroughputSample(2, outputs=3, cost_spent=30.0, memory_bytes=120, backlog=0),
        ]
        b = RunStats()
        b.samples = [
            ThroughputSample(1, outputs=5, cost_spent=7.0, memory_bytes=50, backlog=1),
        ]
        merged = merge_run_stats([a, b])
        assert [s.tick for s in merged.samples] == [0, 1, 2]
        # tick 1: a's last known is its tick-0 sample, b samples fresh.
        assert merged.samples[1] == ThroughputSample(
            1, outputs=6, cost_spent=17.0, memory_bytes=150, backlog=3
        )
        # tick 2: b carries its final reading forward.
        assert merged.samples[2] == ThroughputSample(
            2, outputs=8, cost_spent=37.0, memory_bytes=170, backlog=1
        )

    def test_empty_merge(self):
        assert merge_run_stats([]) == RunStats()


class TestMergeEventTimelines:
    def test_ordered_by_tick_then_partition(self):
        log_a, log_b = EventLog(), EventLog()
        log_a.record(5, "shed", None, count=1)
        log_a.record(9, "death", None)
        log_b.record(5, "degrade", "B")
        merged = merge_event_timelines([list(log_a), list(log_b)])
        assert [(p, e.kind) for p, e in merged] == [
            (0, "shed"),
            (1, "degrade"),
            (0, "death"),
        ]


class TestMergeSnapshots:
    def snap_with(self, *, inc, observe, spans=0):
        reg = MetricsRegistry()
        reg.counter("probes_total", stream="A").inc(inc)
        reg.gauge("backlog").set(inc)
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(observe)
        for i in range(spans):
            reg.point_span("tick", i)
        return reg.snapshot()

    def test_counters_gauges_and_histograms_sum(self):
        merged = merge_snapshots(
            [self.snap_with(inc=2, observe=0.5), self.snap_with(inc=3, observe=1.5)]
        )
        assert merged.get("probes_total", stream="A").value == 5
        assert merged.get("backlog").value == 5
        hist = merged.get("lat")
        assert hist.count == 2
        assert hist.buckets == ((1.0, 1), (2.0, 2), (float("inf"), 2))
        assert hist.total == 2.0

    def test_span_ids_rebased_unique(self):
        merged = merge_snapshots(
            [self.snap_with(inc=1, observe=0.0, spans=3)] * 2
        )
        ids = [s.span_id for s in merged.spans]
        assert len(ids) == 6
        assert len(set(ids)) == 6

    def test_cost_total_sums(self):
        reg = MetricsRegistry()
        reg.charge(1.5, "index")
        merged = merge_snapshots([reg.snapshot(), reg.snapshot()])
        assert merged.cost_total == 3.0

    def test_mismatched_histogram_buckets_rejected(self):
        a = RegistrySnapshot(
            series=(SeriesSnapshot("h", "histogram", buckets=((1.0, 0), (float("inf"), 0))),)
        )
        b = RegistrySnapshot(
            series=(SeriesSnapshot("h", "histogram", buckets=((2.0, 0), (float("inf"), 0))),)
        )
        with pytest.raises(ValueError, match="mismatched bucket boundaries"):
            merge_snapshots([a, b])

    def test_empty_merge(self):
        assert merge_snapshots([]) == RegistrySnapshot()

    def test_parent_links_survive_rebasing(self):
        reg = MetricsRegistry()
        parent = reg.start_span("tick", 0)
        reg.point_span("tune", 0, parent)
        reg.end_span(parent, 1)
        merged = merge_snapshots([reg.snapshot(), reg.snapshot()])
        children = [s for s in merged.spans if s.name == "tune"]
        parents = {s.span_id: s for s in merged.spans if s.name == "tick"}
        assert len(children) == 2
        for child in children:
            assert child.parent_id in parents


class TestPartitionIdentity:
    def test_k1_engine_skips_filtering(self):
        seen = []

        class Recorder:
            def run(self, duration, arrivals):
                seen.append(arrivals)
                return RunStats()

        engine = PartitionedEngine(lambda i: Recorder(), 1)
        source = lambda tick: []  # noqa: E731
        engine.run(3, lambda: source)
        assert seen == [source]  # handed through untouched — no wrapper


class TestPartitionDeterminism:
    def spec(self, **kw):
        defaults = dict(
            params=small_params(),
            scheme="amri:sria",
            ticks=TICKS,
            train=False,
            partitions=3,
            collect_metrics=True,
        )
        defaults.update(kw)
        return RunSpec(**defaults)

    def outcome_fingerprint(self, outcome):
        return (
            stats_fingerprint(outcome.stats),
            tuple(
                (e.tick, e.kind, e.stream, tuple(sorted(e.detail.items())))
                for e in outcome.events
            ),
            snapshot_fingerprint(outcome.metrics),
            tuple(stats_fingerprint(s) for s in outcome.partition_stats),
        )

    def test_repeated_serial_runs_identical(self):
        first = execute_spec(self.spec())
        second = execute_spec(self.spec())
        assert self.outcome_fingerprint(first) == self.outcome_fingerprint(second)

    def test_pool_matches_serial(self):
        """Partitioned specs fan across ``run_parallel``'s process pool."""
        specs = [self.spec(), self.spec(scheme="static")]
        serial = [execute_spec(spec) for spec in specs]
        pooled = run_parallel(specs, workers=2)
        assert [self.outcome_fingerprint(o) for o in serial] == [
            self.outcome_fingerprint(o) for o in pooled
        ]

    def test_partitions_conserve_admitted_arrivals(self):
        outcome = execute_spec(self.spec())
        single = execute_spec(self.spec(partitions=1))
        total = sum(s.source_tuples + s.filtered for s in outcome.partition_stats)
        assert total == single.stats.source_tuples + single.stats.filtered

    def test_backlog_scheduler_composes_with_partitions(self):
        outcome = execute_spec(self.spec(scheduler="backlog"))
        stats, engine = run_scheme_partitioned(
            PaperScenario(small_params()),
            "amri:sria",
            TICKS,
            partitions=3,
            scheduler="backlog",
        )
        assert stats_fingerprint(outcome.stats) == stats_fingerprint(stats)
        assert outcome.partition_stats == tuple(engine.partition_stats)
