"""Tests for parallel experiment execution."""

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import MetricsRegistry
from repro.engine.resources import DegradationPolicy
from repro.engine.tracing import EventLog
from repro.experiments.golden import stats_fingerprint
from repro.experiments.harness import (
    cached_training,
    clear_training_cache,
    train_initial_state,
)
from repro.experiments.parallel import (
    RunSpec,
    _share_training,
    execute_spec,
    run_parallel,
)
from repro.workloads.scenarios import (
    PaperScenario,
    ScenarioParams,
    scenario_params,
    sensor_network_params,
)
from tests.faults import FAULT_PROFILES, execute_faulted

FAST = ScenarioParams(seed=3, capacity=1e9, memory_budget=1 << 30)


def spec(scheme="amri:sria", seed=3, ticks=15):
    return RunSpec(
        ScenarioParams(seed=seed, capacity=1e9, memory_budget=1 << 30),
        scheme,
        ticks,
        train=False,
    )


def direct_run(params, scheme, ticks, **executor_keywords):
    """The engine a spec describes, built by hand with ``make_executor``:
    (stats, meter total)."""
    scenario = PaperScenario(params)
    executor = scenario.make_executor(scheme, **executor_keywords)
    stats = executor.run(ticks, scenario.make_generator())
    return stats, executor.meter.total_spent


class TestRunSpec:
    def test_default_label(self):
        """A spec has no display name: results are keyed by scheme, and
        the header line names the scheme and seed."""
        assert not hasattr(spec(), "display_label")
        line = spec().describe()
        assert " scheme=amri:sria " in line and "seed=3" in line

    def test_custom_label(self):
        """``label`` and ``seed_offset`` are not fields (every run reads
        the scenario's measured arrivals)."""
        with pytest.raises(TypeError):
            RunSpec(FAST, "scan", 5, label="mine")
        with pytest.raises(TypeError):
            RunSpec(FAST, "scan", 5, seed_offset=1)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("ticks", 0),
            ("train_ticks", 0),
            ("scheme", "bogus"),
            ("scheme", "hash:0"),
            ("scheme", "hash:²"),
            ("ticks", -1),
            ("train_ticks", -1),
            ("params", replace(FAST, rate_modulation="tidal")),
        ],
    )
    def test_bad_field_is_a_named_value_error(self, field, bad):
        named = "rate_modulation" if field == "params" else field
        pattern = "(?i)" + named.replace("_", "[_ ]")
        with pytest.raises(ValueError, match=pattern):
            RunSpec(**{"params": FAST, "scheme": "scan", "ticks": 5, field: bad})

    def test_describe_mentions_every_run_shaping_field(self):
        line = spec().describe()
        assert line.startswith(
            "spec: params=ScenarioParams(capacity=1000000000.0, memory_budget=1073741824, seed=3)"
            " scheme=amri:sria ticks=15 train=False "
        )
        assert "\n" not in line
        assert len(fields(RunSpec)) == 8
        for f in fields(RunSpec):
            assert (f" {f.name}=" in f" {line}") == (f.name != "training"), f.name
        assert " scheme=a,b " in spec().describe(["a", "b"])


class TestExecution:
    def test_execute_spec(self):
        outcome = execute_spec(spec())
        assert outcome.stats.probes > 0

    def test_empty(self):
        assert run_parallel([], workers=2) == []

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            run_parallel([spec()], workers=-1)

    def test_serial_path(self):
        outcomes = run_parallel([spec(), spec(seed=4)], workers=0)
        assert len(outcomes) == 2
        assert outcomes[0].spec.params.seed == 3

    def test_parallel_matches_serial(self):
        """Process isolation must not change results."""
        specs = [spec(seed=3), spec(seed=4), spec("scan", seed=3)]
        serial = run_parallel(specs, workers=0)
        parallel = run_parallel(specs, workers=2)
        assert [o.stats.outputs for o in serial] == [o.stats.outputs for o in parallel]
        assert [o.stats.probes for o in serial] == [o.stats.probes for o in parallel]

    def test_results_in_spec_order(self):
        specs = [spec(seed=s) for s in (5, 6, 7)]
        outcomes = run_parallel(specs, workers=3)
        assert [o.spec.params.seed for o in outcomes] == [5, 6, 7]


class TestOnePath:
    """``execute_spec`` is the direct ``make_executor`` run of the same
    description."""

    def test_sensor_bursts_survive_the_spec(self):
        """The scenario is by value: its rate modulation ships in ``params``."""
        params = sensor_network_params()
        outcome = execute_spec(RunSpec(params, "static", 120, train=False))
        direct, _ = direct_run(params, "static", 120)
        assert outcome.stats.source_tuples == direct.source_tuples == 3990
        assert stats_fingerprint(outcome.stats) == stats_fingerprint(direct)

    def test_plain_spec_outcome_is_the_single_kernels_own_views(self):
        """The outcome is what the spec's attachments recorded on a direct
        ``make_executor`` build: stats, meter total, events, metrics
        snapshot."""
        log, registry = EventLog(), MetricsRegistry()
        params = replace(scenario_params("paper-small", 7), capacity=400.0, memory_budget=10_000)
        stats, meter_total = direct_run(
            params,
            "scan",
            30,
            event_log=log,
            metrics=registry,
            degradation=DegradationPolicy(),
        )
        outcome = execute_spec(
            RunSpec(params, "scan", 30, train=False, degrade=True, collect_metrics=True)
        )
        assert log and outcome.stats == stats and stats.shed_tuples > 0
        assert outcome.meter_total == meter_total
        assert (list(outcome.events), outcome.metrics) == (list(log), registry.snapshot())

    @pytest.mark.parametrize("scheme", ["amri:sria", "scan", "hash:2"])
    def test_meter_total_is_the_meters_own_clock(self, scheme):
        """``meter_total`` is the meter's ``total_spent`` on the direct
        build, with or without a registry, and equals the registry's
        chronological ``cost_total`` when metrics are collected."""
        params = scenario_params("paper-small", 5)
        _, meter_total = direct_run(params, scheme, 40)
        plain = execute_spec(RunSpec(params, scheme, 40, train=False))
        metered = execute_spec(RunSpec(params, scheme, 40, train=False, collect_metrics=True))
        assert plain.meter_total == metered.meter_total == meter_total > 0
        assert plain.metrics is None
        assert metered.metrics.cost_total == metered.meter_total

    @pytest.mark.parametrize("scheme", ["amri:cdia-highest", "hash:2", "static"])
    def test_trained_spec_starts_from_the_trained_state(self, scheme):
        """A trained spec is the direct build from the trained ICs and,
        for ``hash:<k>``, the trained ``k`` most frequent patterns."""
        params = scenario_params("paper-small", 7)
        training = cached_training(params, 20)
        k = int(scheme.split(":")[1]) if scheme.startswith("hash:") else None
        stats, meter_total = direct_run(
            params,
            scheme,
            30,
            initial_configs=training.configs,
            initial_hash_patterns=training.hash_patterns(k) if k else None,
        )
        outcome = execute_spec(RunSpec(params, scheme, 30, train_ticks=20))
        assert outcome.stats == stats and outcome.meter_total == meter_total
        untrained = execute_spec(RunSpec(params, scheme, 30, train=False))
        assert untrained.stats != stats  # the start matters on this scenario


class TestFaultedDeterminism:
    """Acceptance: degrading specs yield byte-identical RunStats and event
    logs across serial and pool paths, and identical (scenario seed, fault
    seed) pairs replay identically through the fault harness."""

    def degrading_spec(self, scheme, *, seed=3, ticks=30):
        return RunSpec(
            ScenarioParams(seed=seed),  # default (tight) capacity and budget
            scheme,
            ticks,
            train=False,
            degrade=True,
        )

    def test_pool_matches_serial_byte_identical(self):
        specs = [self.degrading_spec(s) for s in ("amri:sria", "scan", "hash:2")]
        serial = run_parallel(specs, workers=0)
        pooled = run_parallel(specs, workers=3)
        for a, b in zip(serial, pooled):
            assert a.stats == b.stats
            assert a.events == b.events
            assert pickle.dumps(a.stats) == pickle.dumps(b.stats)
            assert pickle.dumps(a.events) == pickle.dumps(b.events)

    def test_faulted_runs_record_their_faults(self):
        spec = self.degrading_spec("scan")
        outcome = execute_faulted(spec, FAULT_PROFILES["chaos"], fault_seed=9)
        assert outcome.stats.faults_injected > 0
        assert any(e.kind == "fault" for e in outcome.events)

    def test_fault_seed_changes_the_run(self):
        spec = self.degrading_spec("scan", ticks=60)
        a = execute_faulted(spec, FAULT_PROFILES["chaos"], fault_seed=1)
        b = execute_faulted(spec, FAULT_PROFILES["chaos"], fault_seed=2)
        assert a.events != b.events
        assert execute_faulted(spec, FAULT_PROFILES["chaos"], fault_seed=1) == a

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 500),
        capacity=st.sampled_from([100.0, 400.0, 10_000.0]),
        memory_budget=st.sampled_from([60_000, 150_000, 8_000_000]),
    )
    def test_property_workers4_equals_workers0(self, seed, capacity, memory_budget):
        params = ScenarioParams(seed=seed, capacity=capacity, memory_budget=memory_budget)
        specs = [
            RunSpec(params, scheme, 20, train=False, degrade=True)
            for scheme in ("amri:sria", "scan")
        ]
        serial = run_parallel(specs, workers=0)
        pooled = run_parallel(specs, workers=4)
        for a, b in zip(serial, pooled):
            assert a.spec == b.spec
            assert a.stats == b.stats
            assert a.events == b.events


class TestSharedTraining:
    """Acceptance: a pool run fed one shared TrainingResult is bit-identical
    to the workers=0 path that retrains in-process."""

    PARAMS = ScenarioParams(seed=21, capacity=1e9, memory_budget=1 << 30)

    def trained_spec(self, scheme, *, params=None):
        return RunSpec(params or self.PARAMS, scheme, 15, train=True, train_ticks=20)

    def test_training_is_a_cache_not_identity(self):
        """Attaching a training must not change equality, hashing, or repr —
        existing pickled/compared specs stay compatible."""
        bare = self.trained_spec("amri:sria")
        training = cached_training(self.PARAMS, 20)
        loaded = replace(bare, training=training)
        assert loaded == bare
        assert hash(loaded) == hash(bare)
        assert "training" not in repr(loaded)

    def test_spec_with_training_pickles(self):
        s = replace(self.trained_spec("scan"), training=cached_training(self.PARAMS, 20))
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert clone.training.configs == s.training.configs

    def test_cached_training_memoizes_per_key(self):
        clear_training_cache()
        first = cached_training(self.PARAMS, 20)
        assert cached_training(self.PARAMS, 20) is first
        assert cached_training(self.PARAMS, 25) is not first
        clear_training_cache()
        assert cached_training(self.PARAMS, 20) is not first

    def test_share_training_attaches_one_result_per_key(self):
        specs = [
            self.trained_spec("amri:sria"),
            self.trained_spec("scan"),
            RunSpec(self.PARAMS, "scan", 15, train=False),
        ]
        shared = [_share_training(s) for s in specs]
        assert shared[0].training is shared[1].training  # same key -> same object
        assert shared[2].training is None  # untrained specs pass through
        assert _share_training(shared[0]) is shared[0]

    def test_cached_training_matches_direct_retrain(self):
        clear_training_cache()
        direct = train_initial_state(PaperScenario(self.PARAMS), train_ticks=20)
        cached = cached_training(self.PARAMS, 20)
        assert cached.configs == direct.configs
        assert cached.frequencies == direct.frequencies

    def test_pool_with_shared_training_matches_serial_retrain(self):
        specs = [self.trained_spec(s) for s in ("amri:sria", "scan", "hash:2")]
        clear_training_cache()
        serial = run_parallel(specs, workers=0)
        clear_training_cache()
        pooled = run_parallel(specs, workers=3)
        for a, b in zip(serial, pooled):
            assert a.stats == b.stats
            assert a.events == b.events
            assert pickle.dumps(a.stats) == pickle.dumps(b.stats)

    def test_shipped_training_matches_in_worker_retrain(self):
        """The pre-shared path must equal what a worker computed on its own
        before this optimisation (spec without a training attached)."""
        spec = self.trained_spec("amri:cdia-highest")
        clear_training_cache()
        retrained = execute_spec(spec)  # resolves via in-process training
        shipped = execute_spec(
            replace(spec, training=cached_training(self.PARAMS, 20))
        )
        assert shipped.stats == retrained.stats
        assert shipped.events == retrained.events
