"""Tests for repro.core.engine: the unified compile/execute seam.

Covers the satellite property requirements (fingerprints are stable,
hashable and collision-free across distinct configurations), the
cached-vs-uncached equivalence over a served trace, the compile and
cache-hit relays, the stats an engine and its copies count, and the
fleet-sharing behaviour.
"""

import dataclasses
import hashlib
import itertools
from unittest import mock

import pytest

from repro.core import ApplicationSpec, PervasiveCNN, TaskClass
from repro.core.engine import (
    ExecuteKey,
    ExecutionEngine,
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
        assert alexnet().fingerprint() == alexnet().fingerprint()

    def test_distinct_networks_distinct(self):
        fps = {
            net.fingerprint()
            for net in (alexnet(), pcnn_net("small"), pcnn_net("medium"))
        }
        assert len(fps) == 3

    def test_same_name_different_structure(self):
        """A renamed copy is not enough: structure feeds the digest."""
        small = pcnn_net("small")
        large = pcnn_net("large")
        large.name = small.name
        assert small.fingerprint() != large.fingerprint()

    def test_rebinding_after_a_first_fingerprint_rehashes(self):
        """The digest is kept on the descriptor, but not past a rename
        or a new input shape."""
        net = pcnn_net("small")
        first = net.fingerprint()
        assert net.fingerprint() == first
        net.name = "renamed"
        renamed = net.fingerprint()
        assert renamed.startswith("renamed@") and renamed != first
        assert renamed == NetworkDescriptor.from_resolved(
            "renamed", net.input_shape, net.layers, net.output_shape
        ).fingerprint()
        net.input_shape = TensorShape(1, 1, 1)
        assert net.fingerprint() not in (first, renamed)


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
        uncached = ExecutionEngine(JETSON_TX1, cache=False)
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
        engine = ExecutionEngine(JETSON_TX1, cache=False)
        first = engine.compile_with_batch(alexnet(), 1)
        second = engine.compile_with_batch(alexnet(), 1)
        assert first is not second
        assert engine.stats.compile_misses == 2


class TestExecuteCache:
    def test_cached_and_uncached_reports_identical(self):
        cached = ExecutionEngine(JETSON_TX1)
        uncached = ExecutionEngine(JETSON_TX1, cache=False)
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
            engine=ExecutionEngine(JETSON_TX1, cache=False)
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


def _relayed(engine):
    """The rows ``engine`` hands a relay registered from here on."""
    rows = []
    engine.relays.append(
        lambda kind, platform, **detail: rows.append(
            (kind, platform, tuple(sorted(detail.items())))
        )
    )
    return rows


class TestRelays:
    def test_compiles_and_cache_hits_are_relayed(self):
        """A compile relays its key; a plan or report cache hit relays
        which cache answered; a simulated execute and a calibration
        relay nothing and are counted."""
        engine = ExecutionEngine(JETSON_TX1)
        rows = _relayed(engine)
        net = alexnet()
        plan = engine.compile_with_batch(net, 1)
        engine.compile_with_batch(net, 1)
        engine.execute(plan)
        engine.execute(plan)
        assert rows == [
            ("compile", "TX1", (
                ("batch", 1), ("network", net.fingerprint()),
                ("perforation", "dense"),
            )),
            ("cache_hit", "TX1", (("cache", "compile"),)),
            ("cache_hit", None, (("cache", "execute"),)),
        ]
        assert (engine.stats.execute_calls, engine.stats.execute_hits) == (
            2, 1
        )
        del rows[:]
        _deploy(engine=engine).process_request()
        assert engine.stats.calibrations == 1
        assert {row[0] for row in rows} == {"compile", "cache_hit"}


class TestCopy:
    #: ``dataclasses.asdict`` of the stats a warm engine ends with
    #: after ``_drive`` (its copy, driven instead, ends with the same),
    #: simulated seconds as float bits.
    DRIVEN_STATS = {
        "compile_calls": 50,
        "compile_misses": 24,
        "execute_calls": 4,
        "execute_misses": 3,
        "calibrations": 1,
        "prewarm_requests": 2,
        "prewarm_misses": 1,
        "prewarmed_hits": 2,
        "simulated_time_s": "0x1.c19a6e3aee56ap-4",
        "plan_use_counts": {
            "30569266e4b15eb3b8d095c3a725937c17ba4e26": 2,
            "8b1c69fe2e5468cb8b8df829f352abba84583681": 1,
            "c20961fbcaaf27bb92d762ac7fecb32f07a6c94f": 1,
        },
    }
    #: SHA-1 of the ``repr`` of the 27 rows ``_drive`` relays from a
    #: warm engine.
    DRIVEN_RELAYS = "d66959f6efdbd33d26e01b07f722e5ed138f5236"

    @staticmethod
    def _warm_engine():
        engine = ExecutionEngine(JETSON_TX1)
        plan = engine.compile_with_batch(alexnet(), 1)
        engine.execute(plan)
        engine.prewarm([(alexnet(), 2, None, None)])
        _deploy(engine=engine)
        return engine

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

    @staticmethod
    def _stats(engine):
        stats = dataclasses.asdict(engine.stats)
        stats["simulated_time_s"] = stats["simulated_time_s"].hex()
        return stats

    def test_copy_starts_where_the_engine_is(self):
        engine = self._warm_engine()
        _relayed(engine)
        twin = engine.copy()
        assert twin.stats == engine.stats
        assert twin.stats is not engine.stats
        assert twin.stats.plan_use_counts is not engine.stats.plan_use_counts
        assert twin.relays == [] and len(engine.relays) == 1
        assert twin.cached_plans == engine.cached_plans
        assert twin.cached_reports == engine.cached_reports
        # Compilers and managers are shared memos.
        assert twin.compiler_for() is engine.compiler_for()
        assert twin.manager_for(True, True) is engine.manager_for(True, True)

    def test_copy_behaves_like_the_engine_and_leaves_it_be(self):
        engine = self._warm_engine()
        from_engine = _relayed(engine)
        twin = engine.copy()
        from_twin = _relayed(twin)
        self._drive(twin)
        assert from_twin and from_engine == []
        assert self._stats(twin) == self.DRIVEN_STATS
        # Driving the copy changed nothing the engine does next: it
        # relays what the copy did and counts the same, as does an
        # engine never copied.
        self._drive(engine)
        reference = self._warm_engine()
        from_reference = _relayed(reference)
        self._drive(reference)
        assert from_twin == from_engine == from_reference
        digest = hashlib.sha1(repr(from_twin).encode("utf-8")).hexdigest()
        assert (len(from_twin), digest) == (27, self.DRIVEN_RELAYS)
        assert self._stats(engine) == self._stats(reference) == (
            self.DRIVEN_STATS
        )


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
