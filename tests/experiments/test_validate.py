"""Tests for the reproduction self-check."""

from repro.experiments import validate


class TestClaimChecks:
    def test_table2_claim_passes(self):
        result = validate.check_table2()
        assert result.passed
        assert "B:1, C:3" in result.measured

    def test_run_all_small_scale(self):
        """The full claim suite at smoke scale: structure over magnitudes."""
        results = validate.run_all(validate.claim_specs(ticks=120, seed=7, train_ticks=40))
        assert len(results) == 5
        by_claim = {r.claim: r for r in results}
        # The exact-equality claims must hold at any scale.
        assert by_claim["Table II worked example (ICs from full vs CSRIA statistics)"].passed
        assert by_claim["DIA == SRIA (same statistics, same run)"].passed

    def test_cli_exit_code(self, capsys):
        rc = validate.main(["--ticks", "120"])
        out = capsys.readouterr().out
        assert "claims reproduced" in out
        assert rc in (0, 1)
