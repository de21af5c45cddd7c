"""Tests for the reproduction self-check."""

import contextlib
import io
import re

import pytest

from repro.experiments import validate


@pytest.fixture(scope="class")
def cli_run():
    """The full claim suite at smoke scale, run once through the CLI.

    ``run_all`` is wrapped so the results behind the printed table are
    captured too; both CLI tests read this one run.
    """
    real_run_all, runs = validate.run_all, []

    def run_all(checked, seed):
        runs.append(real_run_all(checked, seed))
        return runs[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(validate, "run_all", run_all)
        rc = validate.main(["--ticks", "120"])
    (results,) = runs
    return rc, out.getvalue(), results


class TestClaimChecks:
    def test_table2_claim_passes(self):
        _, holds, measured = validate.TABLE2.measure(7)
        assert holds
        assert "B:1, C:3" in measured

    def test_run_all_small_scale(self, cli_run):
        """Structure over magnitudes."""
        _, _, results = cli_run
        assert len(results) == 5
        by_claim = {claim.text: holds for claim, _, holds, _ in results}
        # The exact-equality claims must hold at any scale.
        assert by_claim["Table II worked example (ICs from full vs CSRIA statistics)"]
        assert by_claim["DIA == SRIA (same statistics, same run)"]

    def test_cli_exit_code(self, cli_run):
        rc, out, _ = cli_run
        assert "claims reproduced" in out
        assert rc in (0, 1)

    def test_seed_prefix_still_parses(self, monkeypatch):
        seen = []
        monkeypatch.setattr(validate, "run_all", lambda checked, seed: seen.append(seed) or [])
        assert validate.main(["--seed", "8"]) == 0
        assert seen == [8]


@pytest.fixture(scope="class")
def seeds_run():
    """Every claim over two seeds at smoke scale, run once through the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = validate.main(["--seeds", "5,6", "--ticks", "40"])
    return rc, out.getvalue().splitlines()


class TestSeeds:
    def test_one_summary_line_per_claim(self, seeds_run):
        _, lines = seeds_run
        assert lines[0] == 'seeds 5-6; a tie counts against a "greater" claim'
        for claim in validate.claims(40):
            metric = lines[lines.index(f"validate: {claim.text}") + 1]
            assert re.fullmatch(
                rf"  {re.escape(claim.metric)}: min \S+  median \S+  max \S+  holds [012]/2", metric
            )

    def test_verdict_line_sets_the_exit_code(self, seeds_run):
        rc, lines = seeds_run
        held = int(re.fullmatch(r"(\d)/5 claims hold on ≥ 2 of 2 seeds", lines[-1]).group(1))
        assert rc == (0 if held == 5 else 1)
