"""Tests for parallel experiment execution."""

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import MetricsRegistry
from repro.engine.latency import LatencyTracker
from repro.engine.tracing import EventLog
from repro.experiments.golden import stats_fingerprint
from repro.experiments.harness import (
    cached_training,
    clear_training_cache,
    run_scheme,
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
    sensor_network_scenario,
)

FAST = ScenarioParams(seed=3, capacity=1e9, memory_budget=1 << 30)


def spec(scheme="amri:sria", seed=3, ticks=15):
    return RunSpec(
        ScenarioParams(seed=seed, capacity=1e9, memory_budget=1 << 30),
        scheme,
        ticks,
        train=False,
    )


class TestRunSpec:
    def test_default_label(self):
        assert spec().display_label() == "amri:sria@seed3"

    def test_custom_label(self):
        s = RunSpec(FAST, "scan", 5, label="mine")
        assert s.display_label() == "mine"

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("ticks", 0),
            ("train_ticks", 0),
            ("scheme", "bogus"),
            ("scheme", "hash:0"),
            ("scheme", "hash:²"),
            ("faults", "mayhem"),
            ("train_ticks", -1),
            ("params", replace(FAST, rate_modulation="tidal")),
        ],
    )
    def test_bad_field_is_a_named_value_error(self, field, bad):
        named = "rate_modulation" if field == "params" else field
        pattern = "(?i)" + named.replace("_", "[_ ]").replace("faults", "fault")
        with pytest.raises(ValueError, match=pattern):
            RunSpec(**{"params": FAST, "scheme": "scan", "ticks": 5, field: bad})

    def test_describe_mentions_every_run_shaping_field(self):
        line = spec().describe()
        assert line.startswith(
            "spec: params=ScenarioParams(capacity=1000000000.0, memory_budget=1073741824, seed=3)"
            " scheme=amri:sria ticks=15 train=False "
        )
        assert "\n" not in line
        assert len(fields(RunSpec)) == 13
        for f in fields(RunSpec):
            assert (f" {f.name}=" in f" {line}") == (f.name not in ("training", "label")), f.name
        assert " scheme=a,b " in spec().describe(["a", "b"])


class TestExecution:
    def test_execute_spec(self):
        outcome = execute_spec(spec())
        assert outcome.stats.probes > 0
        assert outcome.outputs == outcome.stats.outputs

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
        assert [o.outputs for o in serial] == [o.outputs for o in parallel]
        assert [o.stats.probes for o in serial] == [o.stats.probes for o in parallel]

    def test_results_in_spec_order(self):
        specs = [spec(seed=s) for s in (5, 6, 7)]
        outcomes = run_parallel(specs, workers=3)
        assert [o.spec.params.seed for o in outcomes] == [5, 6, 7]


class TestOnePath:
    """``execute_spec`` is the harness run of the same description."""

    def test_sensor_bursts_survive_the_spec(self):
        """The scenario is by value: its rate modulation ships in ``params``."""
        scenario = sensor_network_scenario()
        outcome = execute_spec(RunSpec(scenario.params, "static", 120, train=False))
        direct = run_scheme(sensor_network_scenario(), "static", 120)
        assert outcome.stats.source_tuples == direct.source_tuples == 3990
        assert stats_fingerprint(outcome.stats) == stats_fingerprint(direct)

    def test_plain_spec_outcome_is_the_single_kernels_own_views(self):
        """The outcome is what the spec's attachments recorded on a direct
        ``run_scheme``: stats, events, metrics snapshot, latency snapshot."""
        log, registry, tracker = EventLog(), MetricsRegistry(), LatencyTracker()
        params = scenario_params("paper-small", 7)
        stats = run_scheme(
            PaperScenario(params),
            "static",
            30,
            event_log=log,
            metrics=registry,
            latency=tracker,
            faults="chaos",
        )
        outcome = execute_spec(
            RunSpec(
                params,
                "static",
                30,
                train=False,
                faults="chaos",
                collect_metrics=True,
                collect_latency=True,
            )
        )
        assert log and outcome.stats == stats
        assert (list(outcome.events), outcome.metrics) == (list(log), registry.snapshot())
        assert outcome.latency == tracker.snapshot() and outcome.latency.count > 0


class TestFaultedDeterminism:
    """Acceptance: identical (scenario seed, fault seed) pairs yield
    byte-identical RunStats and event logs across serial and pool paths."""

    def faulted_spec(self, scheme, *, seed=3, fault_seed=9, ticks=30):
        return RunSpec(
            ScenarioParams(seed=seed),  # default (tight) capacity and budget
            scheme,
            ticks,
            train=False,
            faults="chaos",
            fault_seed=fault_seed,
            degrade=True,
        )

    def test_pool_matches_serial_byte_identical(self):
        specs = [self.faulted_spec(s) for s in ("amri:sria", "scan", "hash:2")]
        serial = run_parallel(specs, workers=0)
        pooled = run_parallel(specs, workers=3)
        for a, b in zip(serial, pooled):
            assert a.stats == b.stats
            assert a.events == b.events
            assert pickle.dumps(a.stats) == pickle.dumps(b.stats)
            assert pickle.dumps(a.events) == pickle.dumps(b.events)

    def test_faulted_runs_record_their_faults(self):
        outcome = execute_spec(self.faulted_spec("scan"))
        assert outcome.stats.faults_injected > 0
        assert any(e.kind == "fault" for e in outcome.events)

    def test_fault_seed_changes_the_run(self):
        a = execute_spec(self.faulted_spec("scan", fault_seed=1, ticks=60))
        b = execute_spec(self.faulted_spec("scan", fault_seed=2, ticks=60))
        assert a.events != b.events

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 500),
        fault_seed=st.integers(0, 500),
        faults=st.sampled_from([None, "arrivals", "memory", "chaos"]),
    )
    def test_property_workers4_equals_workers0(self, seed, fault_seed, faults):
        specs = [
            RunSpec(
                ScenarioParams(seed=seed),
                scheme,
                20,
                train=False,
                faults=faults,
                fault_seed=fault_seed,
                degrade=True,
            )
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
        shared = _share_training(specs)
        assert shared[0].training is shared[1].training  # same key -> same object
        assert shared[2].training is None  # untrained specs pass through
        assert _share_training(shared)[0].training is shared[0].training

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
