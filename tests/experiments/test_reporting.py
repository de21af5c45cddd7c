"""Tests for ASCII reporting helpers."""

import pytest

from repro.engine.metrics import MetricsRegistry
from repro.engine.stats import RunStats
from repro.engine.tracing import EventLog
from repro.experiments.reporting import (
    format_cost_profile,
    format_event_timeline,
    format_summary,
    format_table,
    format_throughput_figure,
    improvement_pct,
    throughput_series,
)


def make_run(samples, died_at=None):
    rs = RunStats()
    for tick, outputs in samples:
        rs.outputs = outputs
        rs.sample(tick, 0.0, 0, 0)
    rs.died_at = died_at
    return rs


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [33, 444]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestImprovementPct:
    def test_basic(self):
        assert improvement_pct(193, 100) == pytest.approx(93.0)

    def test_zero_loser(self):
        assert improvement_pct(5, 0) == float("inf")
        assert improvement_pct(0, 0) == 0.0


class TestThroughputSeries:
    def test_rows(self):
        runs = {
            "x": make_run([(0, 0), (10, 5)]),
            "y": make_run([(0, 1), (10, 2)]),
        }
        rows = throughput_series(runs, [0, 10])
        assert rows == [[0, 0, 1], [10, 5, 2]]

    def test_dead_run_flatlines(self):
        runs = {"x": make_run([(0, 0), (5, 9)], died_at=5)}
        rows = throughput_series(runs, [0, 5, 20])
        assert rows[-1] == [20, 9]


class TestFigureFormatting:
    def test_contains_title_and_death_note(self):
        runs = {
            "amri": make_run([(0, 0), (100, 50)]),
            "hash": make_run([(0, 0), (40, 7)], died_at=40),
        }
        out = format_throughput_figure("Figure X", runs)
        assert "Figure X" in out
        assert "hash (died)" in out
        assert "out of memory at tick 40" in out

    def test_empty_runs(self):
        out = format_throughput_figure("t", {"x": RunStats()})
        assert "no samples" in out

    def test_summary_lines(self):
        out = format_summary("head", [("A", 193.0, "B", 100.0)])
        assert "+93%" in out
        assert out.startswith("head")

    def test_summary_line_of_a_larger_loser_reads_negative(self):
        out = format_summary("head", [("A", 85.0, "B", 100.0)])
        assert out.endswith("(-15%)")

    def test_timeline_counts_a_fanout_cut_beside_shed(self):
        log = EventLog()
        log.record(3, "tune", "A", old="x", new="y")
        log.record(5, "shed", None, count=2, freed=64)
        log.record(7, "fanout_cut", "C", partials=60_000, cap=50_000)
        lines = format_event_timeline("timeline", {"hash:2": list(log)}).splitlines()
        assert lines[1].split() == ["scheme", "shed", "degrade", "death", "fanout_cut"]
        assert lines[3].split() == ["hash:2", "1", "0", "0", "1"]
        assert lines[-1] == "  t=7 fanout_cut [C]: partials=60000, cap=50000"


class TestCostProfile:
    def make_snapshot(self):
        reg = MetricsRegistry()
        reg.charge(10.0, "index", stream="A", index_kind="bit_address", phase="probe")
        reg.charge(5.0, "router", phase="decide")
        reg.charge(1.0, "output", phase="emit")
        return reg.snapshot()

    def test_format_cost_profile_rows_and_total(self):
        """Every series is a row, by cost descending, then the TOTAL."""
        lines = format_cost_profile("title", self.make_snapshot()).splitlines()
        assert lines[0] == "title"
        assert [line.split()[0] for line in lines[3:]] == ["index", "router", "output", "TOTAL"]
        assert "bit_address" in lines[3]
        assert lines[-1].split()[1:] == ["16.0", "100.0%"]
        assert "more)" not in "\n".join(lines)
