"""Synthetic workloads: drifting stream generators, access-pattern streams,
and the canned Section V scenario."""

from repro.workloads.generators import (
    ConstantSchedule,
    diurnal_burst_modulation,
    DomainSchedule,
    PiecewiseConstantSchedule,
    SyntheticStreamGenerator,
    rotating_hotspot_schedules,
)
from repro.workloads.patterns import (
    PatternStream,
    normalise,
    with_exploration_noise,
    zipf_distribution,
)
from repro.workloads.scenarios import PaperScenario, ScenarioParams, sensor_network_scenario

__all__ = [
    "ConstantSchedule",
    "DomainSchedule",
    "PaperScenario",
    "PatternStream",
    "PiecewiseConstantSchedule",
    "ScenarioParams",
    "diurnal_burst_modulation",
    "sensor_network_scenario",
    "SyntheticStreamGenerator",
    "normalise",
    "rotating_hotspot_schedules",
    "with_exploration_noise",
    "zipf_distribution",
]
