"""Smoke tests for the figure-regeneration entry points (tiny scale)."""

import pytest

from repro.core.index_config import IndexConfiguration
from repro.experiments import figures


class TestTable2:
    def test_exact_paper_ics(self):
        result = figures.table2()
        jas = result["ic_true"].jas
        assert result["ic_true"] == IndexConfiguration(jas, {"A": 1, "B": 1, "C": 2})
        assert result["ic_csria"] == IndexConfiguration(jas, {"B": 1, "C": 3})

    def test_csria_deletes_the_4pct_patterns(self, jas3, ap3):
        result = figures.table2()
        assert ap3("A") not in result["csria_frequencies"]
        assert ap3("A", "B") not in result["csria_frequencies"]

    def test_frequencies_match_table(self, jas3):
        freqs = figures.table2_frequencies(jas3)
        assert sum(freqs.values()) == pytest.approx(1.0)
        assert len(freqs) == 7


class TestFigureRuns:
    """Scaled-down runs of the figure harnesses (shape only)."""

    def test_fig6_small(self):
        runs = figures.figure6_assessment(60, seed=5, train_ticks=30)
        assert set(runs) == set(figures.ASSESSMENT_SCHEMES)
        assert runs["amri:sria"].outputs == runs["amri:dia"].outputs

    def test_fig6_hash_small(self):
        runs = figures.figure6_hash(50, seed=5, train_ticks=30, ks=(1, 7))
        assert "hash:1" in runs and "hash:7" in runs and "amri:cdia-highest" in runs

    def test_fig7_small(self):
        runs, best_hash = figures.figure7(50, seed=5, train_ticks=30, ks=(3,))
        assert best_hash == "hash:3"
        assert "amri:cdia-highest" in runs and "static-bitmap" in runs


class TestCLI:
    def test_table2_target(self, capsys):
        assert figures.main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "A:1, B:1, C:2" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            figures.main(["fig99"])


class TestPrintHelpers:
    def test_print_fig7_smoke(self, capsys):
        figures.print_fig7(40, seed=5)
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "+93%" in out or "best hash" in out
