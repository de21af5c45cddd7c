"""Tests for the reproduction self-check."""

import contextlib
import io

import pytest

from repro.experiments import validate


@pytest.fixture(scope="class")
def cli_run():
    """The full claim suite at smoke scale, run once through the CLI.

    ``run_all`` is wrapped so the results behind the printed table are
    captured too; both CLI tests read this one run.
    """
    real_run_all, runs = validate.run_all, []

    def run_all(specs):
        runs.append(real_run_all(specs))
        return runs[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(validate, "run_all", run_all)
        rc = validate.main(["--ticks", "120"])
    (results,) = runs
    return rc, out.getvalue(), results


class TestClaimChecks:
    def test_table2_claim_passes(self):
        result = validate.check_table2()
        assert result.passed
        assert "B:1, C:3" in result.measured

    def test_run_all_small_scale(self, cli_run):
        """Structure over magnitudes."""
        _, _, results = cli_run
        assert len(results) == 5
        by_claim = {r.claim: r for r in results}
        # The exact-equality claims must hold at any scale.
        assert by_claim["Table II worked example (ICs from full vs CSRIA statistics)"].passed
        assert by_claim["DIA == SRIA (same statistics, same run)"].passed

    def test_cli_exit_code(self, cli_run):
        rc, out, _ = cli_run
        assert "claims reproduced" in out
        assert rc in (0, 1)
