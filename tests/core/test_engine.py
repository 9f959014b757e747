"""Tests for repro.core.engine: the unified compile/execute seam.

Covers the satellite property requirements (fingerprints are stable,
hashable and collision-free across distinct configurations), the
cached-vs-uncached equivalence over a served trace, the hook bus, and
the fleet-sharing behaviour.
"""

import dataclasses
import hashlib
import itertools
from unittest import mock

import pytest

from repro.core import ApplicationSpec, PervasiveCNN, TaskClass
from repro.core.engine import (
    EngineStats,
    ExecuteKey,
    ExecutionEngine,
    HookBus,
    network_fingerprint,
    perforation_fingerprint,
    plan_fingerprint,
)
from repro.core.runtime import InferenceServer
from repro.gpu import JETSON_TX1, K20C
from repro.nn import NetworkDescriptor, alexnet, pcnn_net
from repro.nn.layers import TensorShape
from repro.nn.perforation import RATE_LADDER, PerforationPlan
from repro.workloads import interactive_trace


def _deploy(engine=None, arch=JETSON_TX1):
    pcnn = PervasiveCNN(arch, engine=engine)
    spec = ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, data_rate_hz=50.0
    )
    return pcnn.deploy(alexnet(), spec, max_tuning_iterations=4)


class TestPerforationFingerprint:
    def test_dense_plans_share_fingerprint(self):
        assert perforation_fingerprint(PerforationPlan.dense()) == "dense"
        assert perforation_fingerprint(PerforationPlan({})) == "dense"

    def test_zero_rate_equals_absent(self):
        explicit = PerforationPlan({"conv1": 0.0})
        assert perforation_fingerprint(explicit) == "dense"

    def test_insertion_order_irrelevant(self):
        a = PerforationPlan({"conv1": 0.1, "conv2": 0.3})
        b = PerforationPlan({"conv2": 0.3, "conv1": 0.1})
        assert perforation_fingerprint(a) == perforation_fingerprint(b)

    def test_stable_across_calls(self):
        plan = PerforationPlan({"conv1": 0.2, "conv3": 0.5})
        assert perforation_fingerprint(plan) == perforation_fingerprint(plan)

    def test_collision_free_across_ladder(self):
        """Every (layer, rate) combination over the tuner's ladder maps
        to a distinct fingerprint."""
        layers = ["conv1", "conv2", "conv3"]
        seen = {}
        for layer, rate in itertools.product(layers, RATE_LADDER[1:]):
            plan = PerforationPlan({layer: rate})
            fp = perforation_fingerprint(plan)
            assert fp not in seen, "collision with %r" % (seen.get(fp),)
            seen[fp] = (layer, rate)
        # multi-layer plans are distinct from every single-layer plan
        multi = PerforationPlan({"conv1": 0.1, "conv2": 0.1})
        assert perforation_fingerprint(multi) not in seen

    def test_rate_precision_preserved(self):
        a = PerforationPlan({"conv1": 0.1})
        b = PerforationPlan({"conv1": 0.1 + 1e-9})
        assert perforation_fingerprint(a) != perforation_fingerprint(b)


class TestNetworkFingerprint:
    def test_stable(self):
        assert network_fingerprint(alexnet()) == network_fingerprint(alexnet())

    def test_distinct_networks_distinct(self):
        fps = {
            network_fingerprint(net)
            for net in (alexnet(), pcnn_net("small"), pcnn_net("medium"))
        }
        assert len(fps) == 3

    def test_same_name_different_structure(self):
        """A renamed copy is not enough: structure feeds the digest."""
        small = pcnn_net("small")
        large = pcnn_net("large")
        large.name = small.name
        assert network_fingerprint(small) != network_fingerprint(large)

    def test_rebinding_after_a_first_fingerprint_rehashes(self):
        """The digest is kept on the descriptor, but not past a rename
        or a new input shape."""
        net = pcnn_net("small")
        first = network_fingerprint(net)
        assert network_fingerprint(net) == first
        net.name = "renamed"
        renamed = network_fingerprint(net)
        assert renamed.startswith("renamed@") and renamed != first
        assert renamed == network_fingerprint(
            NetworkDescriptor.from_resolved(
                "renamed", net.input_shape, net.layers, net.output_shape
            )
        )
        net.input_shape = TensorShape(1, 1, 1)
        assert network_fingerprint(net) not in (first, renamed)


class TestCacheKeys:
    def test_keys_hashable_and_equal_by_value(self):
        engine = ExecutionEngine(JETSON_TX1)
        k1 = engine.compile_key(alexnet(), 4)
        k2 = engine.compile_key(alexnet(), 4)
        assert k1 == k2 and hash(k1) == hash(k2)
        assert len({k1, k2}) == 1

    def test_keys_distinct_across_configurations(self):
        engine = ExecutionEngine(JETSON_TX1)
        net = alexnet()
        perf = PerforationPlan({"conv2": 0.3})
        keys = {
            engine.compile_key(net, 1),
            engine.compile_key(net, 2),
            engine.compile_key(net, 1, perf),
            engine.compile_key(net, 1, arch=K20C),
            engine.compile_key(pcnn_net("small"), 1),
        }
        assert len(keys) == 5

    def test_plan_fingerprint_distinguishes_configurations(self):
        engine = ExecutionEngine(JETSON_TX1)
        net = alexnet()
        plans = [
            engine.compile_with_batch(net, 1),
            engine.compile_with_batch(net, 2),
            engine.compile_with_batch(net, 1, PerforationPlan({"conv2": 0.3})),
            engine.compile_with_batch(net, 1, arch=K20C),
        ]
        fps = {plan_fingerprint(p) for p in plans}
        assert len(fps) == len(plans)

    def test_plan_fingerprint_deterministic(self):
        engine = ExecutionEngine(JETSON_TX1)
        plan = engine.compile_with_batch(alexnet(), 2)
        assert plan_fingerprint(plan) == plan_fingerprint(plan)
        uncached = ExecutionEngine(JETSON_TX1, cache_plans=False)
        again = uncached.compile_with_batch(alexnet(), 2)
        assert plan_fingerprint(plan) == plan_fingerprint(again)

    def test_plan_digest_kept_until_its_network_is_rebound(self):
        net = alexnet()
        plan = ExecutionEngine(JETSON_TX1).compile_with_batch(net, 2)
        first = plan_fingerprint(plan)
        with mock.patch("hashlib.sha1", wraps=hashlib.sha1) as sha1:
            assert plan_fingerprint(plan) == first
        assert sha1.call_count == 0
        net.name = "renamed"
        renamed = plan_fingerprint(plan)
        assert renamed != first
        assert renamed == plan_fingerprint(dataclasses.replace(plan))

    def test_execute_key_carries_backend_and_modes(self):
        a = ExecuteKey("fp", True, True, "cublas")
        b = ExecuteKey("fp", True, True, "nervana")
        c = ExecuteKey("fp", False, True, "cublas")
        assert len({a, b, c}) == 3


class TestCompileCache:
    def test_hit_returns_same_plan(self):
        engine = ExecutionEngine(JETSON_TX1)
        first = engine.compile_with_batch(alexnet(), 2)
        second = engine.compile_with_batch(alexnet(), 2)
        assert first is second
        assert engine.stats.compile_calls == 2
        assert engine.stats.compile_misses == 1
        assert engine.stats.compile_hit_rate == pytest.approx(0.5)

    def test_requirement_compile_memoizes_batch_decision(self):
        engine = ExecutionEngine(JETSON_TX1)
        spec = ApplicationSpec("t", TaskClass.INTERACTIVE, data_rate_hz=50.0)
        from repro.core.user_input import infer_requirement

        req = infer_requirement(spec)
        first = engine.compile(alexnet(), req.time, data_rate_hz=50.0)
        misses = engine.stats.compile_misses
        second = engine.compile(alexnet(), req.time, data_rate_hz=50.0)
        assert first is second
        assert engine.stats.compile_misses == misses

    def test_disabled_cache_recompiles(self):
        engine = ExecutionEngine(JETSON_TX1, cache_plans=False)
        first = engine.compile_with_batch(alexnet(), 1)
        second = engine.compile_with_batch(alexnet(), 1)
        assert first is not second
        assert engine.stats.compile_misses == 2


class TestExecuteCache:
    def test_cached_and_uncached_reports_identical(self):
        cached = ExecutionEngine(JETSON_TX1)
        uncached = ExecutionEngine(JETSON_TX1, cache_reports=False)
        plan = cached.compile_with_batch(alexnet(), 2)
        warm = cached.execute(plan)
        hit = cached.execute(plan)
        assert hit is warm  # shared artifact, trivially bit-identical
        cold_a = uncached.execute(plan)
        cold_b = uncached.execute(plan)
        assert cold_a is not cold_b
        assert cold_a == cold_b  # dataclass equality: field-for-field
        assert warm == cold_a
        assert cached.stats.execute_hit_rate == pytest.approx(0.5)

    def test_modes_do_not_share_entries(self):
        engine = ExecutionEngine(JETSON_TX1)
        plan = engine.compile_with_batch(alexnet(), 1)
        gated = engine.execute(plan, power_gating=True)
        ungated = engine.execute(plan, power_gating=False)
        assert engine.cached_reports == 2
        assert ungated.total_energy_joules > gated.total_energy_joules

    def test_served_trace_equivalence(self):
        """A full served trace is bit-identical with and without the
        execution cache."""
        dep_cached = _deploy()
        dep_uncached = _deploy(
            engine=ExecutionEngine(
                JETSON_TX1, cache_plans=False, cache_reports=False
            )
        )
        trace = interactive_trace(n_requests=23, think_time_s=0.04, seed=7)
        report_cached = InferenceServer(dep_cached).serve(trace)
        report_uncached = InferenceServer(dep_uncached).serve(trace)
        assert report_cached.requests == report_uncached.requests
        assert report_cached.total_energy_j == report_uncached.total_energy_j
        assert report_cached.batches == report_uncached.batches
        stats = dep_cached.engine.stats
        assert stats.execute_hits > 0
        assert stats.calibrations == report_cached.batches

    def test_per_plan_call_counts_and_simulated_time(self):
        engine = ExecutionEngine(JETSON_TX1)
        plan = engine.compile_with_batch(alexnet(), 1)
        report = engine.execute(plan)
        engine.execute(plan)
        engine.execute(plan)
        fp = plan_fingerprint(plan)
        assert engine.stats.plan_use_counts[fp] == 3
        assert engine.stats.simulated_time_s == pytest.approx(
            3 * report.total_time_s, rel=1e-12
        )


class TestHookBus:
    def test_unknown_event_rejected(self):
        bus = HookBus()
        with pytest.raises(ValueError):
            bus.subscribe("on_teardown", lambda **kw: None)
        with pytest.raises(ValueError):
            bus.emit("on_teardown")

    def test_lifecycle_events_fire(self):
        engine = ExecutionEngine(JETSON_TX1)
        seen = []
        for event in HookBus.EVENTS:
            engine.hooks.subscribe(
                event, lambda _event=event, **kw: seen.append(_event)
            )
        plan = engine.compile_with_batch(alexnet(), 1)
        engine.compile_with_batch(alexnet(), 1)
        engine.execute(plan)
        engine.execute(plan)
        assert seen.count("on_compile") == 1
        assert seen.count("on_cache_hit") == 2  # one compile, one execute
        assert seen.count("on_execute") == 2
        dep = _deploy(engine=engine)
        dep.process_request()
        assert seen.count("on_calibrate") == 1

    def test_unsubscribe(self):
        engine = ExecutionEngine(JETSON_TX1)
        calls = []
        cb = engine.hooks.subscribe(
            "on_compile", lambda **kw: calls.append(1)
        )
        engine.compile_with_batch(alexnet(), 1)
        engine.hooks.unsubscribe("on_compile", cb)
        engine.compile_with_batch(alexnet(), 2)
        assert len(calls) == 1

    def test_stats_is_detachable_subscriber(self):
        bus = HookBus()
        stats = EngineStats().attach(bus)
        bus.emit("on_cache_hit", kind="compile", key=None)
        assert stats.compile_calls == 1


class TestCopy:
    @staticmethod
    def _warm_engine():
        engine = ExecutionEngine(JETSON_TX1)
        plan = engine.compile_with_batch(alexnet(), 1)
        engine.execute(plan)
        engine.prewarm([(alexnet(), 2, None, None)])
        _deploy(engine=engine)
        return engine

    @staticmethod
    def _record(engine):
        seen = []
        for event in HookBus.EVENTS:
            engine.hooks.subscribe(
                event,
                lambda _event=event, **kw: seen.append(
                    (_event, kw.get("key"), kw.get("cached"),
                     kw.get("prewarmed"), kw.get("hit"))
                ),
            )
        return seen

    @staticmethod
    def _drive(engine):
        """Touch every cache: plan hits (prewarmed or not), a miss, a
        prewarm of a cached plan, report hits and misses, a batch
        decision and a calibration."""
        plan = engine.compile_with_batch(alexnet(), 1)
        engine.compile_with_batch(alexnet(), 2)
        fresh = engine.compile_with_batch(
            alexnet(), 3, PerforationPlan({"conv2": 0.3})
        )
        engine.execute(plan)
        engine.execute(fresh)
        engine.prewarm([(alexnet(), 1, None, None)])
        engine.compile_with_batch(alexnet(), 1)
        _deploy(engine=engine).process_request()

    def test_copy_starts_where_the_engine_is(self):
        engine = self._warm_engine()
        twin = engine.copy()
        assert twin.stats == engine.stats
        assert twin.stats is not engine.stats
        assert twin.hooks is not engine.hooks
        assert twin.cached_plans == engine.cached_plans
        assert twin.cached_reports == engine.cached_reports
        # Compilers and managers are shared memos.
        assert twin.compiler_for() is engine.compiler_for()
        assert twin.manager_for(True, True) is engine.manager_for(True, True)

    def test_copy_behaves_like_the_engine_and_leaves_it_be(self):
        engine = self._warm_engine()
        from_engine = self._record(engine)
        twin = engine.copy()
        from_twin = self._record(twin)
        self._drive(twin)
        assert from_twin and from_engine == []
        # Driving the copy changed nothing the engine does next: it
        # emits what the copy did, as does an engine never copied.
        self._drive(engine)
        reference = self._warm_engine()
        from_reference = self._record(reference)
        self._drive(reference)
        assert from_twin == from_engine == from_reference
        assert twin.stats == engine.stats == reference.stats


class TestFleetSharing:
    def test_one_engine_many_archs(self):
        engine = ExecutionEngine()
        tx1 = engine.compile_with_batch(alexnet(), 1, arch=JETSON_TX1)
        k20 = engine.compile_with_batch(alexnet(), 1, arch=K20C)
        assert tx1.arch is JETSON_TX1 and k20.arch is K20C
        assert engine.cached_plans == 2
        # per-arch reuse survives in the shared engine
        assert engine.compile_with_batch(alexnet(), 1, arch=JETSON_TX1) is tx1
        engine.execute(tx1)
        engine.execute(k20)
        assert engine.cached_reports == 2

    def test_no_default_arch_requires_explicit(self):
        engine = ExecutionEngine()
        with pytest.raises(ValueError):
            engine.compile_with_batch(alexnet(), 1)

    def test_donated_compiler_binds_platform(self):
        from repro.core.offline import OfflineCompiler

        compiler = OfflineCompiler(JETSON_TX1)
        engine = ExecutionEngine(compiler=compiler)
        assert engine.default_arch is JETSON_TX1
        assert engine.compiler_for() is compiler
        with pytest.raises(ValueError):
            ExecutionEngine(arch=K20C, compiler=compiler)
