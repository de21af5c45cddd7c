"""Tests for the generic experiment-runner CLI."""

import csv
import json

import pytest

from repro.experiments import run as run_cli
from repro.workloads.scenarios import PaperScenario, scenario_params, sensor_network_scenario


class TestBuildScenario:
    def test_paper(self):
        sc = PaperScenario(scenario_params("paper", seed=3))
        assert len(sc.query.streams) == 4

    def test_sensor(self):
        sc = PaperScenario(scenario_params("sensor", seed=3))
        assert len(sc.query.streams) == 3
        assert sc.params == sensor_network_scenario(seed=3).params

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            scenario_params("nope", seed=0)


def assert_one_timeline(text, logged):
    """``text`` is a trace: span and event lines, ticks never decreasing,
    and its events are ``logged`` — (tick, kind, stream, detail) in the
    events CSV's form, in recording order — each exactly once, in
    recording order within a tick."""
    records = [json.loads(line) for line in text.splitlines()]
    assert {r["record"] for r in records} == {"span", "event"}
    ticks = [r["start_tick"] if r["record"] == "span" else r["tick"] for r in records]
    assert ticks == sorted(ticks)
    traced = [
        (r["tick"], r["kind"], r["stream"] or "", sorted(f"{k}={v}" for k, v in r["detail"].items()))
        for r in records
        if r["record"] == "event"
    ]
    expected = [(t, k, s, sorted(d.split(";")) if d else []) for t, k, s, d in logged]
    assert traced == sorted(expected, key=lambda e: e[0])  # stable: recording order


class TestCLI:
    def test_run_and_csv_export(self, tmp_path, capsys):
        rc = run_cli.main(
            [
                "--schemes",
                "scan,amri:sria",
                "--ticks",
                "15",
                "--train-ticks",
                "10",
                "--no-train",
                "--csv",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("spec: params=ScenarioParams() scheme=scan,amri:sria ticks=15 ")
        assert "paper scenario" in out
        summary = tmp_path / "paper_summary.csv"
        assert summary.exists()
        with summary.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["scheme"] for r in rows} == {"scan", "amri:sria"}
        series = tmp_path / "paper_amri_sria.csv"
        with series.open() as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) >= 15
        assert int(srows[-1]["outputs"]) >= 0

    def test_a_clean_run_prints_no_timeline(self, tmp_path, capsys):
        """Tuning events alone are no fault timeline: a clean run that
        tunes prints no table of zeros."""
        rc = run_cli.main(
            [
                "--scenario", "paper-small", "--schemes", "amri:sria", "--ticks", "15",
                "--no-train", "--csv", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "timeline" not in capsys.readouterr().out
        with (tmp_path / "paper-small_events.csv").open() as fh:
            assert {r["kind"] for r in csv.DictReader(fh)} >= {"tune"}

    def test_sensor_scenario_option(self, capsys):
        rc = run_cli.main(
            ["--scenario", "sensor", "--schemes", "scan", "--ticks", "10", "--no-train"]
        )
        assert rc == 0
        assert "sensor scenario" in capsys.readouterr().out

    def test_degrade_flag(self, tmp_path, capsys):
        rc = run_cli.main(
            [
                "--schemes",
                "hash:7,scan",
                "--ticks",
                "60",
                "--no-train",
                "--degrade",
                "--csv",
                str(tmp_path),
                "--trace",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "event timeline" in out
        events = tmp_path / "paper_events.csv"
        assert events.exists()
        with events.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {"shed", "degrade"} <= {r["kind"] for r in rows}
        summary = tmp_path / "paper_summary.csv"
        with summary.open() as fh:
            srows = {r["scheme"]: r for r in csv.DictReader(fh)}
        assert "faults_injected" not in srows["hash:7"]
        assert int(srows["hash:7"]["shed_tuples"]) > 0
        assert int(srows["hash:7"]["degradations"]) > 0
        assert srows["hash:7"]["died_at"] == ""
        # The CSV holds the run's events; the trace holds each exactly once
        # (the scan run records no event).
        logged = [
            (int(r["tick"]), r["kind"], r["stream"], r["detail"])
            for r in rows
            if r["scheme"] == "hash:7"
        ]
        assert_one_timeline((tmp_path / "paper_hash_7_trace.jsonl").read_text(), logged)

    def test_metrics_and_trace_export(self, tmp_path, capsys):
        rc = run_cli.main(
            [
                "--schemes", "scan,amri:sria", "--ticks", "12", "--no-train",
                "--metrics", str(tmp_path / "m"),
                "--trace", str(tmp_path / "t"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost units by component" in out
        for scheme in ("scan", "amri_sria"):
            metrics_file = tmp_path / "m" / f"paper_{scheme}_metrics.jsonl"
            records = [json.loads(l) for l in metrics_file.read_text().splitlines()]
            assert records[-1]["record"] == "aggregate"
            assert records[-1]["cost_total"] > 0
            trace_file = tmp_path / "t" / f"paper_{scheme}_trace.jsonl"
            spans = [json.loads(l) for l in trace_file.read_text().splitlines()]
            assert any(s["name"] == "tick" for s in spans)


class TestSchemeNames:
    def test_unknown_scheme_exits_naming_the_expected_ones(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli.main(["--schemes", "scan,btree:3", "--ticks", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scheme 'btree:3'" in err
        assert "amri:<assessor>" in err and "inverted" in err


class TestTrainedPath:
    def test_trained_run_via_cli(self, capsys):
        rc = run_cli.main(
            ["--schemes", "amri:sria", "--ticks", "12", "--train-ticks", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "amri:sria" in out
