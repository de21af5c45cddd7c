"""Tests for the generic experiment-runner CLI."""

import csv
import json

import pytest

from repro.experiments import run as run_cli
from repro.experiments.parallel import RunSpec, execute_spec
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


def assert_one_timeline(rows, scheme, spec):
    """The events CSV's ``rows`` of ``scheme`` are the timeline of
    ``spec``'s run: every event exactly once, in recording order, ticks
    never decreasing."""
    logged = [
        (int(r["tick"]), r["kind"], r["stream"], r["detail"])
        for r in rows
        if r["scheme"] == scheme
    ]
    expected = [
        (e.tick, e.kind, e.stream or "", ";".join(f"{k}={v}" for k, v in e.detail.items()))
        for e in execute_spec(spec).events
    ]
    assert logged == expected
    ticks = [tick for tick, *_ in logged]
    assert ticks == sorted(ticks)


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
        # The CSV holds each run's events (the scan run records none).
        params = scenario_params("paper", 7)
        for scheme in ("hash:7", "scan"):
            spec = RunSpec(params, scheme, 60, train=False, degrade=True)
            assert_one_timeline(rows, scheme, spec)

    def test_metrics_export(self, tmp_path, capsys):
        rc = run_cli.main(
            [
                "--schemes", "scan,amri:sria", "--ticks", "12", "--no-train",
                "--metrics", str(tmp_path / "m"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for scheme in ("scan", "amri:sria"):
            assert f"cost-unit profile — {scheme} on paper, 12 ticks (seed 7)" in out
        assert out.count(": OK\n") == 2
        for scheme in ("scan", "amri_sria"):
            metrics_file = tmp_path / "m" / f"paper_{scheme}_metrics.jsonl"
            records = [json.loads(l) for l in metrics_file.read_text().splitlines()]
            assert records[-1]["record"] == "aggregate"
            assert records[-1]["cost_total"] > 0

    def test_a_run_without_events_writes_a_header_only_events_csv(self, tmp_path, capsys):
        rc = run_cli.main(
            ["--schemes", "scan", "--ticks", "8", "--no-train", "--csv", str(tmp_path)]
        )
        assert rc == 0
        assert "event timeline" not in capsys.readouterr().out
        lines = (tmp_path / "paper_events.csv").read_text().splitlines()
        assert lines == ["scheme,tick,kind,stream,detail"]

    def test_the_metrics_aggregate_is_the_ledger_total_and_series_count(self, tmp_path):
        rc = run_cli.main(
            [
                "--schemes", "amri:sria", "--ticks", "10", "--no-train",
                "--metrics", str(tmp_path),
            ]
        )
        assert rc == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "paper_amri_sria_metrics.jsonl").read_text().splitlines()
        ]
        *series, aggregate = records
        assert set(aggregate) == {"record", "cost_total", "series"}
        assert aggregate["series"] == len(series) > 0
        assert {r["record"] for r in series} == {"series"}
        total = sum(r["value"] for r in series)
        assert total == pytest.approx(aggregate["cost_total"], rel=1e-9)


class TestCostProfile:
    """A metrics run prints each scheme's cost table and checks that its
    attribution reconciles with the virtual clock."""

    def test_run_exports_and_reconciles(self, tmp_path, capsys):
        rc = run_cli.main(
            [
                "--scenario", "paper-small", "--schemes", "amri:sria", "--ticks", "25",
                "--no-train", "--csv", str(tmp_path / "c"),
                "--metrics", str(tmp_path / "m"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost-unit profile — amri:sria on paper-small, 25 ticks (seed 7)" in out
        total = next(line for line in out.splitlines() if line.lstrip().startswith("TOTAL"))
        assert total.split()[-1] == "100.0%"
        reconcile = next(line for line in out.splitlines() if "== virtual clock" in line)
        assert reconcile.startswith(f"attributed total {total.split()[1]} == virtual clock ")
        assert reconcile.endswith(": OK")
        records = [
            json.loads(line)
            for line in (tmp_path / "m" / "paper-small_amri_sria_metrics.jsonl")
            .read_text()
            .splitlines()
        ]
        assert records[-1]["record"] == "aggregate"
        with (tmp_path / "c" / "paper-small_events.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {"tune", "migration"} & {r["kind"] for r in rows}
        spec = RunSpec(scenario_params("paper-small", 7), "amri:sria", 25, train=False)
        assert_one_timeline(rows, "amri:sria", spec)

    def test_a_mismatch_exits_one_after_the_exports(self, tmp_path, capsys, monkeypatch):
        """Attribution that does not reconcile fails the run, exports kept."""
        monkeypatch.setattr(run_cli, "reconciles", lambda snapshot, meter_total: False)
        rc = run_cli.main(
            ["--schemes", "scan", "--ticks", "12", "--no-train", "--metrics", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out.count(": MISMATCH\n") == 1
        assert (
            captured.err.strip().splitlines()[-1]
            == "cost attribution does not reconcile with the virtual clock"
        )
        assert (tmp_path / "paper_scan_metrics.jsonl").exists()


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
