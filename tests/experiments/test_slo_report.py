"""``repro slo``: the tail-latency/SLO report over multiple scenarios."""

import json
import re

from repro.experiments import slo_report


class TestSloReport:
    def test_reports_both_scenarios_with_quantiles(self, capsys):
        rc = slo_report.main(["--schemes", "scan", "--ticks", "12", "--no-train"])
        out = capsys.readouterr().out
        assert rc == 0
        # One table per scenario, each with the quantile columns.
        assert "paper: latency / SLO (p95<=8@120)" in out
        assert "sensor: latency / SLO (p95<=8@120)" in out
        assert len(re.findall(r"p50 +p95 +p99", out)) == 2
        # Each scenario block is headed by the spec line of its runs.
        assert out.count("spec: params=ScenarioParams(") == 2
        assert "rate_modulation='diurnal_burst'" in out

    def test_json_report_parses_and_is_tagged(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        rc = slo_report.main(
            [
                "--schemes", "scan", "--scenarios", "paper",
                "--ticks", "12", "--no-train",
                "--slo", "p95<=4@10",
                "--json", str(path),
            ]
        )
        assert rc == 0
        assert "JSONL report written" in capsys.readouterr().out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {
            "record": "slo_report", "objective": "p95<=4@10", "ticks": 12,
        }
        latency = [r for r in records if r["record"] == "latency"]
        assert latency
        assert all(r["scenario"] == "paper" and r["scheme"] == "scan" for r in latency)
        aggregate = next(r for r in latency if r["scope"] == "aggregate")
        assert {"p50", "p95", "p99", "observed", "violations"} <= set(aggregate)
