"""Tests for the cost-unit regression gate (``tools/check_bench_regression.py``)."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def export(path: Path, costs: dict[str, float]) -> Path:
    """A minimal ``pytest-benchmark --benchmark-json`` export."""
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "extra_info": {"cost_units": cost}, "stats": {"mean": 0.001}}
        for name, cost in costs.items()
    ]}))
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
