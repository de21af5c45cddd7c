"""Benchmark for the extension scenario (beyond the paper's Section V).

The bursty sensor-network scenario (synthetic stand-in for the tech
report's real-data experiments): AMRI must survive bursts that kill the
under-provisioned hash baselines.
"""

from benchmarks.conftest import run_once, run_trained
from repro.experiments.harness import train_initial_state
from repro.workloads.scenarios import sensor_network_scenario

SENSOR_TICKS = 300


def test_sensor_scenario_burst_survival(benchmark):
    """AMRI survives the bursts; an under-moduled hash baseline dies."""

    def run():
        scenario = sensor_network_scenario()
        training = train_initial_state(scenario, train_ticks=60)
        amri = run_trained(scenario.params, "amri:cdia-highest", SENSOR_TICKS, training)
        hash2 = run_trained(scenario.params, "hash:2", SENSOR_TICKS, training)
        return amri, hash2

    amri, hash2 = run_once(benchmark, run)
    benchmark.extra_info["amri_outputs"] = amri.outputs
    benchmark.extra_info["hash2_outputs"] = hash2.outputs
    benchmark.extra_info["hash2_died_at"] = hash2.died_at
    assert amri.completed
    assert amri.outputs > hash2.outputs
