"""``python -m repro`` dispatch: exit codes, usage errors, new engine flags."""

import pytest

import repro.__main__ as main_mod
from repro.experiments import parallel, profiling
from repro.experiments import run as run_cli
from repro.workloads.scenarios import PaperScenario, ScenarioParams


class TestExitCodes:
    def test_no_args_prints_banner(self, capsys):
        assert main_mod.main([]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main_mod.main(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "profile", "figures", "slo"])
    def test_unknown_flag_exits_2_with_usage_no_traceback(self, command, capsys):
        rc = main_mod.main([command, "--definitely-not-a-flag"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage" in captured.err.lower()
        assert "Traceback" not in captured.err

    def test_banner_enumerates_every_subcommand(self, capsys):
        """The help text and the dispatch table must not drift apart."""
        main_mod.main([])
        banner = capsys.readouterr().out
        for command in main_mod.COMMANDS:
            assert f"\n  {command} " in banner, command

    def test_help_flag_exits_0(self, capsys):
        assert main_mod.main(["run", "--help"]) == 0
        assert "usage: repro run" in capsys.readouterr().out

    def test_string_system_exit_becomes_usage_error(self, capsys, monkeypatch):
        """exit("message") from a subcommand prints the message, code 2."""

        class Fake:
            @staticmethod
            def main(argv):
                raise SystemExit("bad invocation")

        monkeypatch.setitem(main_mod.COMMANDS, "fake", "fakemod")
        monkeypatch.setattr(
            "importlib.import_module", lambda name: Fake, raising=False
        )
        assert main_mod.main(["fake"]) == 2
        assert "bad invocation" in capsys.readouterr().err

    def test_none_system_exit_is_success(self, monkeypatch):
        class Fake:
            @staticmethod
            def main(argv):
                raise SystemExit(None)

        monkeypatch.setitem(main_mod.COMMANDS, "fake", "fakemod")
        monkeypatch.setattr(
            "importlib.import_module", lambda name: Fake, raising=False
        )
        assert main_mod.main(["fake"]) == 0

    def test_exception_in_subcommand_exits_1(self, capsys, monkeypatch):
        class Fake:
            @staticmethod
            def main(argv):
                raise RuntimeError("boom")

        monkeypatch.setitem(main_mod.COMMANDS, "fake", "fakemod")
        monkeypatch.setattr(
            "importlib.import_module", lambda name: Fake, raising=False
        )
        assert main_mod.main(["fake"]) == 1
        assert "boom" in capsys.readouterr().err


class TestEngineFlags:
    def test_bad_scheduler_exits_2(self, capsys):
        """The backlog drains in arrival order: there is no policy flag."""
        for command in ("run", "profile"):
            rc = main_mod.main([command, "--scheduler", "backlog"])
            err = capsys.readouterr().err
            assert rc == 2
            assert "usage" in err.lower()
            assert "unrecognized arguments: --scheduler backlog" in err

    @pytest.mark.parametrize(
        "flag", ["--batch-size", "--probe-workers", "--lazy-index", "--promote-threshold"]
    )
    def test_removed_plane_flags_are_unrecognized(self, flag, capsys):
        rc = main_mod.main(["run", flag, "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"unrecognized arguments: {flag} 2" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["run", "--fleet", "2"], "--fleet"),
            (["run", "--partitions", "2"], "--partitions"),
            (["slo", "--partitions", "2"], "--partitions"),
            (["fleet"], "'fleet'"),
            (["run", "--index-backend", "scan"], "--index-backend"),
            (["run", "--list-backends"], "--list-backends"),
        ],
    )
    def test_removed_scale_out_surface_is_a_usage_error(self, argv, named, capsys):
        rc = main_mod.main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert named in captured.err.strip().splitlines()[-1]
        assert "Traceback" not in captured.err

    def test_removed_migration_budget_is_a_usage_error(self, capsys):
        """A migration is stop-the-world: no flag, spec field or keyword
        budgets it."""
        rc = main_mod.main(["run", "--migration-budget", "4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--migration-budget" in captured.err.strip().splitlines()[-1]
        assert "Traceback" not in captured.err
        params = ScenarioParams(seed=3)
        with pytest.raises(TypeError, match="migration_budget"):
            parallel.RunSpec(params, "scan", 5, migration_budget=4)
        with pytest.raises(TypeError, match="migration_budget"):
            PaperScenario(params).make_executor("scan", migration_budget=4)

    @pytest.mark.parametrize("value", [",", ""])
    def test_empty_scheme_list_is_a_usage_error(self, value, capsys):
        rc = main_mod.main(["run", "--schemes", value, "--no-train"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--schemes names no scheme" in captured.err
        assert captured.out == ""

    def test_non_numeric_hash_scheme_is_an_unknown_scheme(self, capsys):
        rc = main_mod.main(["run", "--schemes", "hash:x", "--ticks", "5", "--train-ticks", "5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown scheme 'hash:x'" in captured.err
        assert "hash:<k>" in captured.err

    @pytest.mark.parametrize(
        "command,argv,message",
        [
            ("run", ["--ticks", "0"], "ticks must be >= 1, got 0"),
            ("run", ["--train-ticks", "0"], "train_ticks must be >= 1, got 0"),
            ("run", ["--schemes", "static,bogus"], "unknown scheme 'bogus'"),
            ("run", ["--schemes", "hash:0"], "unknown scheme 'hash:0'"),
            ("run", ["--schemes", "amri:bogus"], "unknown assessor 'bogus'"),
            ("run", ["--schemes", "hash:²"], "unknown scheme 'hash:²'; expected amri:<assessor>"),
            ("run", ["--slo", "garbage"], "bad SLO spec 'garbage'"),
            ("slo", ["--ticks", "0"], "ticks must be >= 1, got 0"),
            ("slo", ["--train-ticks", "0"], "train_ticks must be >= 1, got 0"),
            ("slo", ["--schemes", "static,bogus"], "unknown scheme 'bogus'"),
            ("slo", ["--slo", "garbage"], "bad SLO spec 'garbage'"),
            ("profile", ["--ticks", "0"], "ticks must be >= 1, got 0"),
            ("profile", ["--train-ticks", "0"], "train_ticks must be >= 1, got 0"),
            ("profile", ["--scheme", "hash:0"], "unknown scheme 'hash:0'"),
            ("profile", ["--scheme", "amri:bogus"], "unknown assessor 'bogus'"),
            ("profile", ["--scheme", "hash:²"], "unknown scheme 'hash:²'"),
            ("profile", ["--top", "-2"], "top must be >= 1, got -2"),
            ("profile", ["--top", "0"], "top must be >= 1, got 0"),
            ("run", ["--schemes", "scan,scan"], "--schemes repeats scan, got 'scan,scan'"),
            ("slo", ["--schemes", "static, scan,static"], "--schemes repeats static, got"),
            ("slo", ["--schemes", ","], "--schemes names no scheme, got ','"),
        ],
    )
    def test_bad_sizes_and_schemes_are_usage_errors_before_training(
        self, command, argv, message, capsys, monkeypatch
    ):
        """Every CLI prints the ``RunSpec`` validation message, exit 2."""

        def no_training(*args, **kwargs):
            raise AssertionError("quasi-training ran before the usage error")

        monkeypatch.setattr(parallel, "cached_training", no_training)
        monkeypatch.setattr(profiling, "train_initial_state", no_training)
        rc = main_mod.main([command, *argv])
        err = capsys.readouterr().err
        assert rc == 2
        # argparse's usage block, then exactly one error line.
        assert err.count(f"repro {command}: error: ") == 1
        assert message in err.strip().splitlines()[-1]


class TestSloFlags:
    @pytest.mark.parametrize("bad", ["p95<8@120", "nonsense", "p0<=8@120"])
    def test_bad_slo_spec_exits_2(self, bad, capsys):
        rc = main_mod.main(["run", "--slo", bad])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage" in captured.err.lower()
        assert "Traceback" not in captured.err

    def test_slo_report_requires_slo(self, capsys):
        rc = main_mod.main(["run", "--slo-report", "out/"])
        assert rc == 2
        assert "--slo-report requires --slo" in capsys.readouterr().err

    def test_armed_run_prints_latency_table(self, capsys, tmp_path):
        rc = run_cli.main(
            [
                "--schemes", "scan", "--ticks", "12", "--no-train",
                "--slo", "p95<=8@10",
                "--slo-report", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "latency / SLO (p95<=8@10)" in out
        report = tmp_path / "paper_scan_slo.jsonl"
        assert report.exists()
        import json

        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert records[0]["record"] == "latency"

    def test_slo_subcommand_bad_scenario_exits_2(self, capsys):
        rc = main_mod.main(["slo", "--scenarios", "nope"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_slo_subcommand_bad_spec_exits_2(self, capsys):
        rc = main_mod.main(["slo", "--slo", "oops"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err.lower()
