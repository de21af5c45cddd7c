"""Mode-conformance matrix (K=1 golden replay) + fleet routed == broadcast.

Two equivalence contracts anchor the multi-engine modes:

- **K=1 golden replay** — every case of the committed golden-equivalence
  matrix, driven through a one-engine
  :class:`~repro.fleet.FleetEngine` and a one-partition
  :class:`~repro.engine.kernel.PartitionedEngine`, reproduces its corpus
  fingerprint *exactly* (stats, events, metrics, meter totals).  Each
  mode's k==1 bypass really is the plain engine; the corpus itself is
  untouched.
- **Routed == broadcast** — on every registered index backend, routing
  each request to one cost-chosen replica emits the same logical join
  results (and the same merged output count) as executing every request
  on every replica and deduplicating; both match the single engine.
  Run under ample capacity so no shedding perturbs either side.
"""

from __future__ import annotations

import pytest

from repro.engine.kernel import PartitionedEngine
from repro.experiments.golden import CASES, run_case
from repro.experiments.harness import run_scheme, run_scheme_fleet, train_initial_state
from repro.fleet import FleetEngine
from repro.workloads.scenarios import PaperScenario, ScenarioParams
from tests.integration.test_golden_equivalence import _golden

#: scheme -> backend it exercises (all five registered index backends).
SCHEMES = {
    "amri:sria": "bit_address",
    "static": "static_bitmap",
    "hash:2": "multi_hash",
    "inverted": "inverted",
    "scan": "scan",
}

TICKS = 12


def ample_params(seed: int) -> ScenarioParams:
    """Small but all-phases scenario with no capacity/memory pressure."""
    return ScenarioParams(
        stream_names=("A", "B", "C"),
        rate=2,
        window=4,
        phase_len=5,
        domain=6,
        bit_budget=16,
        assess_interval=4,
        capacity=1e12,
        memory_budget=1 << 40,
        seed=seed,
    )


def canonical_outputs(outputs) -> dict:
    """Order/identity-independent multiset of emitted join results."""
    counts: dict = {}
    for joined in outputs:
        key = frozenset(
            (src.stream, src.arrived_at, tuple(sorted(src.items())))
            for src in joined.sources
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("engine", [FleetEngine, PartitionedEngine], ids=lambda e: e.__name__)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_k1_fleet_replays_the_golden_corpus(case, engine):
    """A one-engine fleet / one-partition engine *is* the plain engine."""
    golden = _golden()
    assert case.name in golden
    assert run_case(case, engine=engine) == golden[case.name]


class TestRoutedEqualsBroadcast:
    def run_mode(self, scheme: str, mode: str, seed: int, *, fleet=3, train=True):
        scenario = PaperScenario(ample_params(seed))
        training = (
            train_initial_state(scenario, train_ticks=8) if train else None
        )
        sink: list = []
        stats, engine = run_scheme_fleet(
            scenario,
            scheme,
            TICKS,
            fleet=fleet,
            mode=mode,
            training=training,
            output_sink=sink.extend,
        )
        return stats, engine, canonical_outputs(sink)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=lambda s: SCHEMES[s])
    def test_routed_matches_broadcast_and_single(self, scheme):
        seed = 3
        routed_stats, routed_engine, routed_out = self.run_mode(scheme, "routed", seed)
        bcast_stats, bcast_engine, bcast_out = self.run_mode(scheme, "broadcast", seed)
        assert routed_out == bcast_out
        assert routed_stats.outputs == bcast_stats.outputs
        assert routed_stats.outputs == routed_engine.logical_outputs

        scenario = PaperScenario(ample_params(seed))
        training = train_initial_state(scenario, train_ticks=8)
        single_sink: list = []
        single = run_scheme(
            scenario, scheme, TICKS, training=training, output_sink=single_sink.extend
        )
        assert routed_out == canonical_outputs(single_sink)
        assert routed_stats.outputs == single.outputs

    @pytest.mark.parametrize("seed", [1, 4, 11])
    def test_seed_sweep_on_the_divergent_backend(self, seed):
        """Extra seeds on the backend where replicas genuinely diverge."""
        _, _, routed_out = self.run_mode("amri:sria", "routed", seed)
        _, _, bcast_out = self.run_mode("amri:sria", "broadcast", seed)
        assert routed_out == bcast_out

    def test_untrained_fleet_also_holds(self):
        """Identical replicas (no training → no divergent set) still route
        and dedup correctly — the degenerate-fleet edge."""
        _, _, routed_out = self.run_mode("amri:sria", "routed", 2, train=False)
        _, _, bcast_out = self.run_mode("amri:sria", "broadcast", 2, train=False)
        assert routed_out == bcast_out
