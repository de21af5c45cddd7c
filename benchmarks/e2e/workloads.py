"""The benchmark's workloads, defined by their inputs, and its run sizing.

A workload is ``ScenarioParams`` overrides + an index scheme + a tick rate;
it never names an engine option, so a PR that flips an engine default or
deletes a plane is measured on the same named workload.  ``BENCHMARK.json``
at the repository root carries the workload names with their one-line
``why`` and every metric's unit and bound; this module carries what the
contract file has no key for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Two windows of the paper scenario: caches fill, windows reach steady
#: occupancy, and the first tuning round has run before timing starts.
WARMUP_TICKS = 40
#: Quasi-training length (the harness default), part of ``setup_s``.
TRAIN_TICKS = 120
#: One run measures this many sub-runs, each on its own derived seed and in
#: its own child process.  Work per request depends on the drawn values, so
#: one seed's throughput is not another's; pooling sub-seeds steadies the
#: run-to-run spread and gives ``setup_s`` its several samples.
SUBRUNS = 3
#: Runs of each workload that ``run`` makes, for a median with quartiles.
REPEATS = 3
#: Uncapped prefix (two windows, so expiry is exercised) on which the
#: scheme's join results are checked against the scan scheme's.
ORACLE_TICKS = 40
#: A scaled-down run never times fewer ticks than this per sub-run.
MIN_TIMED_TICKS = 20


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    scheme: str
    #: Timed ticks per nominal second of ``--seconds``, summed over the
    #: sub-runs; sized on the reference box (2 cores, CPython 3.11) so that
    #: ``--seconds 10`` times ten to fifteen seconds.  Fixed, not adaptive:
    #: the tick count must not depend on how fast the engine is, or the
    #: modeled clock's metrics would stop being comparable between commits.
    ticks_per_second: float
    params: dict = field(default_factory=dict)
    oracle_ticks: int = ORACLE_TICKS

    def timed_ticks(self, seconds: float, scale: float = 1.0) -> int:
        """Timed ticks of one sub-run."""
        return max(MIN_TIMED_TICKS, round(seconds * self.ticks_per_second * scale / SUBRUNS))


# ScenarioParams defaults are the paper's Section V set-up (4 streams, rate
# 12, window 20, domain 256, phase 60, assess 40, capacity 19 000, memory
# 380 000); each workload overrides only what makes it a different input.
WORKLOADS: tuple[Workload, ...] = (
    Workload("paper_drift", "amri:cdia-highest", ticks_per_second=60.0),
    Workload(
        "fast_drift",
        "amri:cdia-highest",
        ticks_per_second=33.0,
        params={"phase_len": 20, "assess_interval": 5},
    ),
    Workload(
        "sparse_ingest",
        "amri:cdia-highest",
        ticks_per_second=42.0,
        params={
            "rate": 60,
            "domain": 262144,
            "hot_skew": 0.0,
            "cold_skew": 0.0,
            "assess_interval": 150,
            "capacity": 1e9,
            "memory_budget": 1 << 34,
        },
        # A scan probe walks the whole 4 800-tuple window here, so the
        # oracle prefix is shortened to keep the check to a second or two.
        oracle_ticks=12,
    ),
    Workload(
        "paper_hash",
        "hash:3",
        ticks_per_second=144.0,
        # The hash baseline outgrows the paper's memory budget and dies;
        # lifted so it survives and shares arrivals with paper_drift.
        params={"memory_budget": 1 << 34},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def sub_seeds(seed: int) -> list[int]:
    """The ``ScenarioParams.seed`` of each sub-run of a run on ``seed``."""
    return [seed * 100 + i for i in range(SUBRUNS)]


def load_contract() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
