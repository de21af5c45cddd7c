"""Tests for ``repro profile`` and the package-level subcommand dispatch."""

import json

import pytest

import repro.__main__ as main_mod
from repro.engine.metrics import MetricsRegistry
from repro.engine.metrics_export import event_records
from repro.experiments.golden import json_pure
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.profiling import main as profile_main
from repro.experiments.profiling import reconciles
from repro.experiments.reporting import format_component_breakdown, format_cost_profile
from repro.workloads.scenarios import scenario_params

TICKS = 25


def profile(scheme):
    """What ``repro profile --no-train`` runs: (stats, snapshot, meter total)."""
    spec = RunSpec(scenario_params("paper", 7), scheme, TICKS, train=False, collect_metrics=True)
    outcome = execute_spec(spec)
    return outcome.stats, outcome.metrics, outcome.meter_total


class TestProfileScheme:
    def test_attribution_reconciles_exactly(self):
        stats, snapshot, meter_total = profile("amri:sria")
        # The headline invariant: chronological grand total is bit-identical
        # to the executor's virtual clock — no leakage, no double counting.
        assert snapshot.cost_total == meter_total
        assert reconciles(snapshot, meter_total)
        assert stats.probes > 0
        components = {k[0] for k in snapshot.cost_by("component")}
        assert {"index", "router"} <= components

    def test_reconciles_rejects_leakage(self):
        _, snapshot, meter_total = profile("scan")
        assert reconciles(snapshot, meter_total)
        assert not reconciles(snapshot, meter_total + 1.0)


class TestProfileCLI:
    def test_profile_run_exports_and_reconciles(self, tmp_path, capsys):
        rc = profile_main(
            [
                "--scenario", "paper-small",
                "--scheme", "amri:sria", "--ticks", str(TICKS), "--no-train",
                "--metrics", str(tmp_path / "m.jsonl"),
                "--trace", str(tmp_path / "t.jsonl"),
                "--top", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost-unit profile" in out
        assert "== virtual clock" in out and "OK" in out
        records = [
            json.loads(line)
            for line in (tmp_path / "m.jsonl").read_text().splitlines()
        ]
        assert records[-1]["record"] == "aggregate"
        trace = [
            json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        ]
        spans = [r for r in trace if r["record"] == "span"]
        assert {"tick", "tuple"} <= {s["name"] for s in spans}
        # One timeline: span and event lines, ticks never decreasing, and
        # every event of the run exactly once, in recording order per tick.
        assert {r["record"] for r in trace} == {"span", "event"}
        ticks = [r["start_tick"] if r["record"] == "span" else r["tick"] for r in trace]
        assert ticks == sorted(ticks)
        spec = RunSpec(
            scenario_params("paper-small", 7), "amri:sria", TICKS, train=False,
            collect_metrics=True,
        )
        events = execute_spec(spec).events
        expected = sorted(event_records(events), key=lambda r: r["tick"])
        assert [r for r in trace if r["record"] == "event"] == json_pure(expected)
        assert {"tune", "migration"} & {e.kind for e in events}

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            profile_main(["--scheme", "nope", "--ticks", "5"])
        assert exc.value.code == 2
        assert "unknown scheme 'nope'" in capsys.readouterr().err


class TestMainDispatch:
    def test_no_args_prints_banner(self, capsys):
        assert main_mod.main([]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert main_mod.main(["--help"]) == 0
        assert "profile" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main_mod.main(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_profile_subcommand_dispatches(self, capsys):
        rc = main_mod.main(
            ["profile", "--scheme", "scan", "--ticks", "10", "--no-train"]
        )
        assert rc == 0
        assert "cost-unit profile" in capsys.readouterr().out

    def test_failing_subcommand_exits_one(self, capsys):
        rc = main_mod.main(["profile", "--scenario-typo"])
        assert rc == 2  # argparse usage error keeps its exit code

    def test_subcommand_exception_maps_to_one(self, monkeypatch, capsys):
        import repro.experiments.profiling as profiling

        def boom(argv):
            raise RuntimeError("kaput")

        monkeypatch.setattr(profiling, "main", boom)
        assert main_mod.main(["profile"]) == 1
        assert "kaput" in capsys.readouterr().err


class TestReportingTables:
    def make_snapshot(self):
        reg = MetricsRegistry()
        reg.charge(10.0, "index", stream="A", index_kind="bit_address", phase="probe")
        reg.charge(5.0, "router", phase="decide")
        reg.charge(1.0, "output", phase="emit")
        return reg.snapshot()

    def test_format_cost_profile_rows_and_total(self):
        text = format_cost_profile("title", self.make_snapshot(), top_k=2)
        assert "title" in text
        assert "bit_address" in text
        assert "TOTAL" in text
        assert "(1 more)" in text  # third row folded into the remainder line

    def test_format_component_breakdown_columns(self):
        snaps = {"scan": self.make_snapshot(), "amri": self.make_snapshot()}
        text = format_component_breakdown("by component", snaps)
        assert "scan" in text and "amri" in text
        assert "index" in text and "router" in text
