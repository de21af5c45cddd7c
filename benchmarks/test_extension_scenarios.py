"""Benchmarks for the extension scenarios (beyond the paper's Section V).

- the bursty sensor-network scenario (synthetic stand-in for the tech
  report's real-data experiments): AMRI must survive bursts that kill the
  under-provisioned hash baselines;
- multi-query execution over shared states: one AMRI index per state
  serving two queries' mixed access patterns.
"""

from benchmarks.conftest import run_once
from repro.core.assessment import CDIA
from repro.core.bit_index import make_bit_index
from repro.core.selector import IndexSelector
from repro.core.tuner import AMRITuner
from repro.engine.multi_query import MultiQueryExecutor, QuerySet
from repro.engine.parser import parse_query
from repro.engine.resources import ResourceMeter
from repro.engine.router import GreedyAdaptiveRouter
from repro.experiments.harness import run_scheme, train_initial_state
from repro.storage import StateStore
from repro.workloads.generators import ConstantSchedule, SyntheticStreamGenerator
from repro.workloads.scenarios import sensor_network_scenario

SENSOR_TICKS = 300


def test_sensor_scenario_burst_survival(benchmark):
    """AMRI survives the bursts; an under-moduled hash baseline dies."""

    def run():
        scenario = sensor_network_scenario()
        training = train_initial_state(scenario, train_ticks=60)
        amri = run_scheme(scenario, "amri:cdia-highest", SENSOR_TICKS, training=training)
        hash2 = run_scheme(scenario, "hash:2", SENSOR_TICKS, training=training)
        return amri, hash2

    amri, hash2 = run_once(benchmark, run)
    benchmark.extra_info["amri_outputs"] = amri.outputs
    benchmark.extra_info["hash2_outputs"] = hash2.outputs
    benchmark.extra_info["hash2_died_at"] = hash2.died_at
    assert amri.completed
    assert amri.outputs > hash2.outputs


def test_multi_query_shared_state(benchmark):
    """Two queries share stream A's state; one tuned index serves both."""

    def run():
        q1 = parse_query(
            "select A.*, B.* from A, B where A.k = B.k window 12",
            schemas={"A": ["k", "j"]},
            name="q1",
        )
        q2 = parse_query(
            "select A.*, C.* from A, C where A.j = C.j window 12",
            schemas={"A": ["k", "j"]},
            name="q2",
        )
        qs = QuerySet([q1, q2])
        stems = {}
        for stream in qs.stream_names:
            jas = qs.union_jas(stream)
            index = make_bit_index(jas, [6] * len(jas))
            tuner = AMRITuner(
                index,
                CDIA(jas, epsilon=0.05, combine="highest_count", seed=0),
                IndexSelector(jas, 16),
            )
            stems[stream] = StateStore(stream, jas, index, qs.max_window(stream), tuner)
        routers = {q.name: GreedyAdaptiveRouter(q, explore_prob=0.1, seed=0) for q in qs}
        executor = MultiQueryExecutor(
            qs,
            stems,
            routers,
            ResourceMeter(capacity=1e12, memory_budget=1 << 30),
            arrival_rates={s: 10.0 for s in qs.stream_names},
        )
        generator = SyntheticStreamGenerator(
            {"A": ("k", "j"), "B": ("k",), "C": ("j",)},
            {"k": ConstantSchedule(64, skew=1.0), "j": ConstantSchedule(64, skew=1.0)},
            {s: 10 for s in ("A", "B", "C")},
            seed=5,
        )
        executor.run(200, generator)
        return executor

    executor = run_once(benchmark, run)
    benchmark.extra_info["per_query_outputs"] = dict(executor.per_query_outputs)
    benchmark.extra_info["migrations"] = executor.stats.migrations
    assert executor.per_query_outputs["q1"] > 0
    assert executor.per_query_outputs["q2"] > 0
    # The shared A-state saw both queries' patterns.
    seen = executor.stems["A"].tuner.assessor.frequencies()
    attrs = {ap.attributes for ap in seen}
    assert ("k",) in attrs and ("j",) in attrs
