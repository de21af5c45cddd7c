"""Wall-clock benchmarks of the optimised hot paths.

Runs the same benchmark bodies as ``tools/bench_wall.py`` under
pytest-benchmark, so the suite exercises insert / probe / migrate /
end-to-end timing in CI while the tool owns the committed before/after
evidence (``BENCH_wall.json``).  The non-timing tests pin the properties
the speedups rely on: warm plan caches, slotted hot dataclasses, and a
well-formed committed benchmark file.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_wall", REPO_ROOT / "tools" / "bench_wall.py"
)
bench_wall = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_wall)

from benchmarks.conftest import run_once  # noqa: E402


class TestMicroPaths:
    """pytest-benchmark timings of the micro hot paths (many rounds)."""

    def test_bit_index_insert(self, benchmark):
        assert benchmark(bench_wall.bench_bit_index_insert) == bench_wall.N_ITEMS

    def test_bit_index_probe(self, benchmark):
        idx = bench_wall.populated_bit_index()
        assert benchmark(bench_wall.bench_bit_index_probe, idx) == bench_wall.N_PROBES

    def test_multi_hash_probe(self, benchmark):
        idx = bench_wall.populated_hash_index()
        assert benchmark(bench_wall.bench_multi_hash_probe, idx) == bench_wall.N_PROBES

    def test_bit_index_migrate(self, benchmark):
        assert run_once(benchmark, bench_wall.bench_bit_index_migrate) == 10

    def test_probe_plane_serial(self, benchmark):
        idx = bench_wall.populated_bit_index()
        assert benchmark(bench_wall.bench_probe_plane_serial, idx) == bench_wall.N_PROBES

    def test_probe_plane_batch64(self, benchmark):
        idx = bench_wall.populated_bit_index()
        assert (
            benchmark(bench_wall.bench_probe_plane_batch64, idx) == bench_wall.N_PROBES
        )

    def test_latency_p95(self, benchmark):
        assert run_once(benchmark, bench_wall.bench_latency_p95) == 50_000

    def test_selector_exhaustive(self, benchmark):
        fixture = bench_wall.selector_fixture()
        rounds = len(fixture) * bench_wall.SELECTOR_ROUNDS
        assert benchmark(bench_wall.bench_selector_exhaustive, fixture) == rounds


class TestEndToEnd:
    """Experiment-scale runs: timed once, like the figure benchmarks."""

    def test_end_to_end_scenario(self, benchmark):
        assert run_once(benchmark, bench_wall.bench_end_to_end_scenario) == 60

    def test_parallel_training_shared(self, benchmark):
        from repro.experiments.harness import clear_training_cache

        clear_training_cache()
        assert run_once(benchmark, bench_wall.bench_parallel_training_shared) == 3


class TestSpeedupProperties:
    """The structural facts behind the wall-clock wins."""

    def test_probe_workload_warms_one_plan_per_pattern(self):
        idx = bench_wall.populated_bit_index()
        bench_wall.bench_bit_index_probe(idx)
        # Three distinct patterns in the workload -> three cached plans.
        assert len(idx.probe_plans) == 3

    def test_hot_dataclasses_are_slotted(self):
        from repro.core.bit_index import MigrationReport
        from repro.engine.kernel.stages import TickState
        from repro.engine.tracing import EngineEvent
        from repro.indexes.base import SearchOutcome

        for cls in (SearchOutcome, EngineEvent, MigrationReport, TickState):
            assert "__slots__" in vars(cls), cls.__name__
            # slots-only classes carry no per-instance __dict__ at all
            assert cls.__dictoffset__ == 0, cls.__name__

    def test_batch_probe_plane_is_bit_identical_on_the_bench_workload(self):
        """The timed comparison is fair: batch64 does the same logical work
        (same outcomes, same accountant) as the serial probe plane."""
        ap, rows = bench_wall.zipf_probe_workload(320)
        serial_idx = bench_wall.populated_bit_index()
        serial = [serial_idx.search(ap, {"A": a, "B": b}) for a, b in rows]
        batch_idx = bench_wall.populated_bit_index()
        batched = []
        for start in range(0, len(rows), bench_wall.BATCH_SIZE):
            batched.extend(
                batch_idx.search_batch(ap, rows[start : start + bench_wall.BATCH_SIZE])
            )
        for a, b in zip(serial, batched):
            assert b.matches == a.matches
            assert b.tuples_examined == a.tuples_examined
            assert b.buckets_visited == a.buckets_visited
        assert batch_idx.accountant == serial_idx.accountant

    def test_zipf_workload_is_skewed_enough_to_dedup(self):
        """The batch win comes from row dedup: a 64-row chunk of the skewed
        workload repeats most of its rows."""
        _, rows = bench_wall.zipf_probe_workload()
        size = bench_wall.BATCH_SIZE
        chunks = [rows[i : i + size] for i in range(0, len(rows) - size + 1, size)]
        distinct = [len(set(chunk)) for chunk in chunks]
        assert sum(distinct) / len(distinct) < size / 2

    def test_footprint_measurement_covers_the_slotted_classes(self):
        footprint = bench_wall.measure_footprint()
        assert set(footprint) == {
            "SearchOutcome",
            "EngineEvent",
            "MigrationReport",
            "TickState",
        }
        assert all(bytes_per > 0 for bytes_per in footprint.values())


class TestCommittedEvidence:
    """BENCH_wall.json is part of the repo's performance record."""

    def doc(self):
        return json.loads((REPO_ROOT / "BENCH_wall.json").read_text())

    def test_schema_and_labels(self):
        doc = self.doc()
        assert doc["schema"] == "bench-wall/v1"
        assert {"before", "after"} <= set(doc["runs"])
        for run in doc["runs"].values():
            assert set(run["benchmarks"]) == set(bench_wall.BENCHMARKS)

    def test_cross_label_speedups_show_no_regression(self):
        """Both labels are full same-machine, same-code runs, so the
        cross-label ``speedup`` section is a no-regression gate rather
        than optimisation evidence:
        ``after`` must stay within noise of ``before`` on the acceptance
        paths.  The original hot-path optimisation evidence (probe 2.36x,
        end-to-end 2.19x against the pre-optimisation code) is recorded in
        the history of this file; today's acceptance ratios are the
        within-run sections asserted below, which hold machine and code
        fixed by construction."""
        speedup = self.doc()["speedup"]
        assert speedup["bit_index_probe"] >= 0.7
        assert speedup["end_to_end_scenario"] >= 0.7

    def test_batch_plane_speedup_recorded(self):
        """The batch data plane's acceptance evidence: >=1.5x probe-stage
        throughput at batch size 64 vs serial, measured within one run."""
        batch_speedup = self.doc()["batch_speedup"]
        assert batch_speedup["after"] >= 1.5
        assert batch_speedup["before"] >= 1.5
