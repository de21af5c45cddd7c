"""``python -m repro`` dispatch: exit codes, usage errors, new engine flags."""

import pytest

import repro.__main__ as main_mod
from repro.experiments import harness, parallel, validate
from repro.workloads.scenarios import PaperScenario, ScenarioParams


class TestExitCodes:
    def test_no_args_prints_banner(self, capsys):
        assert main_mod.main([]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main_mod.main(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "figures"])
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


class TestMainDispatch:
    def test_banner_lists_two_subcommands(self, capsys):
        assert main_mod.main([]) == 0
        banner = capsys.readouterr().out
        assert sorted(main_mod.COMMANDS) == ["figures", "run"]
        assert "\n  profile " not in banner

    def test_help_flag(self, capsys):
        assert main_mod.main(["--help"]) == 0
        assert "\n  run " in capsys.readouterr().out

    def test_profile_is_an_unknown_subcommand(self, capsys):
        """``repro run --metrics`` prints the cost table ``repro profile`` did."""
        assert main_mod.main(["profile"]) == 2
        assert "unknown subcommand 'profile'" in capsys.readouterr().err

    def test_run_subcommand_dispatches(self, tmp_path, capsys):
        rc = main_mod.main(
            ["run", "--schemes", "scan", "--ticks", "10", "--no-train", "--metrics", str(tmp_path)]
        )
        assert rc == 0
        assert "cost-unit profile — scan on paper" in capsys.readouterr().out

    def test_failing_subcommand_exits_one(self, capsys):
        rc = main_mod.main(["run", "--scenario-typo"])
        assert rc == 2  # argparse usage error keeps its exit code

    def test_subcommand_exception_maps_to_one(self, monkeypatch, capsys):
        import repro.experiments.run as run_cli

        def boom(argv):
            raise RuntimeError("kaput")

        monkeypatch.setattr(run_cli, "main", boom)
        assert main_mod.main(["run"]) == 1
        assert "kaput" in capsys.readouterr().err


class TestEngineFlags:
    def test_bad_scheduler_exits_2(self, capsys):
        """The backlog drains in arrival order: there is no policy flag."""
        rc = main_mod.main(["run", "--scheduler", "backlog"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "usage" in err.lower()
        assert "unrecognized arguments: --scheduler backlog" in err

    @pytest.mark.parametrize(
        "flag",
        [
            "--batch-size",
            "--probe-workers",
            "--lazy-index",
            "--promote-threshold",
            "--faults",
            "--fault-seed",
            "--latency",
            "--top",
        ],
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
            ("run", ["--ticks", "-2", "--metrics", "out"], "ticks must be >= 1, got -2"),
            ("run", ["--train-ticks", "-2", "--trace", "out"], "train_ticks must be >= 1, got -2"),
            ("run", ["--schemes", "scan,scan"], "--schemes repeats scan, got 'scan,scan'"),
            ("run", ["--schemes", "static, scan,static"], "--schemes repeats static, got"),
            ("figures", ["fig7", "--ticks", "0"], "ticks must be >= 1, got 0"),
            ("figures", ["all", "--ticks", "-3"], "ticks must be >= 1, got -3"),
            ("figures", ["sensor", "--ticks", "0"], "ticks must be >= 1, got 0"),
        ],
    )
    def test_bad_sizes_and_schemes_are_usage_errors_before_training(
        self, command, argv, message, capsys, monkeypatch
    ):
        """Every CLI prints the ``RunSpec`` validation message, exit 2."""
        forbid_training(monkeypatch)
        rc = main_mod.main([command, *argv])
        err = capsys.readouterr().err
        assert rc == 2
        # argparse's usage block, then exactly one error line.
        assert err.count(f"repro {command}: error: ") == 1
        assert message in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("ticks", ["0", "-1"])
    def test_validate_bad_ticks_is_a_usage_error_before_training(
        self, ticks, capsys, monkeypatch
    ):
        forbid_training(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            validate.main(["--ticks", ticks])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.count("error: ") == 1
        assert f"ticks must be >= 1, got {ticks}" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("seeds", ["3-1", "", "x"])
    def test_validate_bad_seeds_is_a_usage_error_before_training(
        self, seeds, capsys, monkeypatch
    ):
        forbid_training(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            validate.main(["--seeds", seeds])
        assert exc.value.code == 2
        assert "argument --seeds: " in capsys.readouterr().err


def forbid_training(monkeypatch):
    """Make any quasi-training (memoized or direct) fail the test."""

    def no_training(*args, **kwargs):
        raise AssertionError("quasi-training ran before the usage error")

    monkeypatch.setattr(harness, "train_initial_state", no_training)
    monkeypatch.setattr(parallel, "cached_training", no_training)


class TestLatencyFlag:
    @pytest.mark.parametrize(
        "argv",
        [["slo"], ["run", "--slo", "p95<=8@120"], ["run", "--slo-report", "out/"]],
    )
    def test_slo_surface_is_a_usage_error(self, argv, capsys):
        assert main_mod.main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_prometheus_format_is_a_usage_error(self, capsys):
        rc = main_mod.main(["run", "--format", "prometheus"])
        assert rc == 2
        assert "unrecognized arguments: --format prometheus" in capsys.readouterr().err
