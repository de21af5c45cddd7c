"""Tests for ASCII reporting helpers."""

import pytest

from repro.engine.stats import RunStats
from repro.experiments.reporting import (
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
