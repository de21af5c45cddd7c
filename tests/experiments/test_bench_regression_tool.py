"""Tests for the cost-unit regression gate (``tools/check_bench_regression.py``)."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def export(path: Path, costs: dict[str, float], medians: dict[str, float] | None = None) -> Path:
    """A minimal ``pytest-benchmark --benchmark-json`` export; a row's
    ``stats.median`` is written only when ``medians`` names it."""
    rows = []
    for name, cost in costs.items():
        stats = {"mean": 0.001}
        if medians and name in medians:
            stats["median"] = medians[name]
        rows.append({"name": name, "extra_info": {"cost_units": cost}, "stats": stats})
    path.write_text(json.dumps({"benchmarks": rows}))
    return path


class TestCostUnitGate:
    def test_identical_runs_pass(self, tmp_path, capsys):
        costs = {"test_a": 10.0, "test_b": 2.5}
        base = export(tmp_path / "base.json", costs)
        new = export(tmp_path / "new.json", costs)
        assert gate.main([str(base), str(new)]) == 0
        assert "all 2 comparable benchmarks" in capsys.readouterr().out

    def test_drift_either_way_fails(self, tmp_path):
        base = export(tmp_path / "base.json", {"test_a": 10.0})
        for drifted in (11.0, 9.0):
            new = export(tmp_path / "new.json", {"test_a": drifted})
            assert gate.main([str(base), str(new)]) == 1

    def test_a_missing_baseline_row_fails_and_is_named(self, tmp_path, capsys):
        base = export(tmp_path / "base.json", {"test_a": 10.0, "test_gone": 5.0})
        new = export(tmp_path / "new.json", {"test_a": 10.0, "test_new": 1.0})
        assert gate.main([str(base), str(new)]) == 1
        captured = capsys.readouterr()
        assert "MISSING  test_gone" in captured.out
        assert "missing from the new run: test_gone" in captured.err
        assert "test_new" not in captured.err  # a row without baseline is not gated

    def test_metrics_file_records_costs_baselines_and_means(self, tmp_path):
        base = export(tmp_path / "base.json", {"test_a": 10.0, "test_b": 2.5})
        new = export(tmp_path / "new.json", {"test_b": 2.5, "test_a": 10.0, "test_c": 1.0})
        out = tmp_path / "m.jsonl"
        assert gate.main([str(base), str(new), "--metrics", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]

        def series(name, kind, bench, value):
            return {
                "kind": kind,
                "labels": {"bench": bench},
                "name": name,
                "record": "series",
                "value": value,
            }

        assert records == [
            series("bench_cost_units", "counter", "test_a", 10.0),
            series("bench_cost_units", "counter", "test_b", 2.5),
            series("bench_cost_units", "counter", "test_c", 1.0),
            series("bench_cost_units_baseline", "gauge", "test_a", 10.0),
            series("bench_cost_units_baseline", "gauge", "test_b", 2.5),
            series("bench_mean_seconds", "gauge", "test_a", 0.001),
            series("bench_mean_seconds", "gauge", "test_b", 0.001),
            series("bench_mean_seconds", "gauge", "test_c", 0.001),
        ]
        assert all(list(rec) == sorted(rec) for rec in records)  # sorted keys, as written


def wall_lines(tmp_path, capsys, base_medians, new_medians):
    """The ``WALL`` lines of one comparison (cost units identical)."""
    costs = {name: 1.0 for name in base_medians}
    base = export(tmp_path / "base.json", costs, base_medians)
    new = export(tmp_path / "new.json", costs, new_medians)
    assert gate.main([str(base), str(new)]) == 0
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("WALL")]


class TestWallAdvisory:
    # Each row is measured against the run's median ratio (the host's
    # speed), so the 1.0x rows below pin that ratio at 1.0x.
    STEADY = {f"test_flat_{i}": 1e-3 for i in range(3)}

    def test_a_slower_median_prints_wall_and_never_fails(self, tmp_path, capsys):
        costs = {"test_slow": 10.0, "test_steady": 2.5, **dict.fromkeys(self.STEADY, 1.0)}
        base = export(
            tmp_path / "base.json", costs,
            {"test_slow": 1e-3, "test_steady": 1e-3, **self.STEADY},
        )
        new = export(
            tmp_path / "new.json", costs,
            {"test_slow": 1.3e-3, "test_steady": 1.2e-3, **self.STEADY},
        )
        assert gate.main([str(base), str(new)]) == 0
        out = capsys.readouterr().out
        assert "WALL     test_slow:" in out
        assert "test_steady: median" not in out  # +20 % is inside the advisory bound

    def test_a_row_without_a_median_is_skipped(self, tmp_path, capsys):
        costs = {"test_a": 10.0, "test_b": 2.5, **dict.fromkeys(self.STEADY, 1.0)}
        base = export(tmp_path / "base.json", costs, {"test_a": 1e-3, **self.STEADY})
        new = export(
            tmp_path / "new.json", costs, {"test_a": 2e-3, "test_b": 9.0, **self.STEADY}
        )
        assert gate.main([str(base), str(new)]) == 0
        out = capsys.readouterr().out
        assert "WALL     test_a:" in out
        assert "WALL     test_b" not in out

    def test_a_uniformly_slower_host_prints_nothing(self, tmp_path, capsys):
        base = {f"test_{i}": (i + 1) * 1e-4 for i in range(6)}
        slow = {name: 1.8 * t for name, t in base.items()}
        assert wall_lines(tmp_path, capsys, base, slow) == []

    def test_one_row_slower_than_the_rest_prints_exactly_that_row(self, tmp_path, capsys):
        base = {f"test_{i}": (i + 1) * 1e-4 for i in range(6)}
        new = dict(base, test_3=2 * base["test_3"])
        (line,) = wall_lines(tmp_path, capsys, base, new)
        assert line.startswith("WALL     test_3:")
