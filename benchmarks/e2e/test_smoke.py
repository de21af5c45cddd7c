"""Smoke test of the end-to-end benchmark at 5 % scale.

Run by explicit path (``pytest benchmarks/e2e/test_smoke.py``); tier-1
collects only ``tests/``.  Each invocation launches 24 short child
processes (4 workloads x (3 untraced + 3 traced sub-runs)), about half a
minute on the reference box.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import report, run, workloads

CONTRACT = workloads.load_contract()


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=workloads.ROOT, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    paths = [out / "a.json", out / "b.json"]
    elapsed = []
    for path in paths:
        start = time.perf_counter()
        proc = cli("run", "--scale", "0.05", "--out", str(path))
        elapsed.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return paths, elapsed


def test_contract_names_the_code_it_measures():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.BY_NAME)
    blank = [{"tick_ns": [1], "layers": {"sums": {}, "peaks": {}}}]
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(report.per_layer(blank, 0.0))
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


def test_scaled_run_is_quick_and_emits_every_metric(two_runs):
    paths, elapsed = two_runs
    assert max(elapsed) < 90
    results = json.loads(paths[0].read_text())
    assert list(results["workloads"]) == list(workloads.BY_NAME)
    for entry in results["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1
        for kind, run in (("end_to_end", entry["untraced"][0]), ("per_layer", entry["traced"])):
            assert list(run["metrics"]) == [m["name"] for m in CONTRACT[kind]]
            for name, metric in run["metrics"].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
                assert isinstance(metric["value"], (int, float))
        for metric in entry["untraced"][0]["metrics"].values():
            assert metric["value"] > 0


def test_exact_metrics_repeat_across_invocations(two_runs):
    a, b = (json.loads(path.read_text()) for path in two_runs[0])
    _rows, differs = report.compare(a, b, CONTRACT)
    assert differs == []


def test_compare_of_a_file_with_itself_is_all_ok(two_runs):
    path = str(two_runs[0][0])
    proc = cli("compare", path, path, "--require-identical")
    assert proc.returncode == 0, proc.stdout
    rows = proc.stdout.splitlines()[1:-1]
    assert len(rows) == len(workloads.BY_NAME) * len(CONTRACT["end_to_end"])
    assert all(row.split()[-1] == "ok" for row in rows)


def test_compare_holds_one_seed_to_the_tight_bounds(two_runs, tmp_path):
    base = json.loads(two_runs[0][0].read_text())
    slower = copy.deepcopy(base)
    for entry in slower["workloads"].values():
        for one in entry["untraced"]:
            one["metrics"]["tuples_per_s"]["value"] *= 0.9  # inside BENCHMARK.json's bound
    rows, _differs = report.compare(base, slower, CONTRACT)
    assert {r["status"] for r in rows if r["metric"] == "tuples_per_s"} == {"regressed"}
    assert {r["status"] for r in rows if r["metric"] != "tuples_per_s"} == {"ok"}

    other_seed = tmp_path / "other_seed.json"
    other_seed.write_text(json.dumps({**base, "seed": base["seed"] + 1}))
    assert cli("compare", str(two_runs[0][0]), str(other_seed)).returncode == 2


def test_mode_sweep_records_a_failing_cell_and_goes_on(monkeypatch, capsys):
    def child(spec):
        if spec["cell_opts"].get("lazy_index"):
            raise run.CheckFailed("child exited 1:\nTypeError: unexpected keyword")
        return {"absent": False, "wall_s": 2.0, "requests": 100, "fingerprint_sha256": "f"}

    monkeypatch.setattr(run, "child", child)
    cells = run.mode_sweep(7, 10, 0.05)
    assert list(cells) == [name for name, _ in run.MODE_CELLS]
    assert "error" in cells["lazy"] and cells["fleet2"]["vs_default"] == 1.0
    run.print_modes(cells)
    assert "modes.lazy: error: TypeError: unexpected keyword" in capsys.readouterr().out
