"""Every ablation benchmark states a claim in ``benchmarks/ablations.py``.

Import only: no engine runs.
"""

from pathlib import Path

from benchmarks.ablations import CLAIMS

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def test_every_ablation_file_has_a_claim():
    files = {path.stem for path in BENCHMARKS.glob("test_ablation_*.py")}
    claimed = {claim.file for claim in CLAIMS}
    assert files, "no ablation files found"
    assert files - claimed == set(), "ablation files without a claim"
    assert claimed - files == set(), "claims naming no ablation file"
