"""Robustness and failure-injection tests.

The library should fail loudly and precisely on malformed inputs, and
degrade gracefully (not crash, not silently mis-schedule) on edge-case
but legal ones: single-pixel networks, batch-of-one classifiers, chips
with one SM, pathological tuning thresholds, contradictory calibration
streams.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ApplicationSpec, ExecutionEngine, PervasiveCNN, TaskClass
from repro.core.offline import OfflineCompiler
from repro.core.runtime import AccuracyTuner, AnalyticEntropyModel
from repro.core.satisfaction import TimeRequirement
from repro.gpu import JETSON_TX1, K20C
from repro.gpu.kernels import GemmShape, make_kernel
from repro.nn.layers import ConvSpec, DenseSpec, SoftmaxSpec, TensorShape
from repro.nn.models import NetworkDescriptor
from repro.nn.perforation import PerforationPlan, make_grid_perforation
from repro.sim.engine import simulate_kernel


class TestDegenerateNetworks:
    def _tiny(self):
        return NetworkDescriptor(
            "micro",
            TensorShape(1, 3, 3),
            [
                ConvSpec("conv1", 2, 3, padding=1, activation="leaky"),
                DenseSpec("fc", 2, activation="none"),
                SoftmaxSpec(),
            ],
        )

    def test_micro_network_compiles_everywhere(self):
        net = self._tiny()
        for arch in (K20C, JETSON_TX1):
            plan = OfflineCompiler(arch).compile_with_batch(net, 1)
            assert plan.total_time_s > 0

    def test_micro_network_tunes(self):
        net = self._tiny()
        engine = ExecutionEngine(JETSON_TX1)
        tuner = AccuracyTuner(engine, net, AnalyticEntropyModel(net))
        table = tuner.tune(batch=1, entropy_threshold=2.0, max_iterations=4)
        assert len(table) >= 1

    def test_one_by_one_output_perforation_is_identity(self):
        """A 1x1 output grid cannot be perforated below one sample."""
        grid = make_grid_perforation(1, 1, 0.7)
        assert grid.kept == 1
        assert grid.rate == 0.0

    def test_network_without_convs_rejected_by_memory_profile(self):
        net = NetworkDescriptor(
            "dense-only",
            TensorShape(1, 4, 4),
            [DenseSpec("fc", 2, activation="none"), SoftmaxSpec()],
        )
        profile = net.memory_profile()
        # memory profile clamps conv count to 1 rather than crashing
        assert profile.n_conv_layers == 1


class TestDegenerateHardware:
    def test_single_sm_chip(self):
        lonely = replace(K20C, name="1-SM", n_sms=1)
        kernel = make_kernel(64, 64, block_size=256)
        result = simulate_kernel(lonely, kernel, GemmShape(128, 729, 512))
        assert result.sms_used == 1
        assert result.grid_size == kernel.grid_size(GemmShape(128, 729, 512))

    def test_single_sm_compilation(self):
        lonely = replace(JETSON_TX1, name="1-SM", n_sms=1)
        from repro.nn import pcnn_net

        plan = OfflineCompiler(lonely).compile_with_batch(pcnn_net("small"), 1)
        assert all(s.opt_sm == 1 for s in plan.schedules)

    def test_kernel_too_fat_for_shared_memory(self):
        from repro.gpu.kernels import SgemmKernel
        from repro.gpu import occupancy

        fat = SgemmKernel("fat", 128, 128, 256, regs_per_thread=64,
                          shared_mem_bytes=100 * 1024)
        assert occupancy.ctas_per_sm(K20C, fat) == 0
        with pytest.raises(ValueError):
            simulate_kernel(K20C, fat, GemmShape(128, 128, 64))


class TestPathologicalTuning:
    def test_threshold_below_baseline_yields_dense_only(self):
        from repro.nn import alexnet

        net = alexnet()
        engine = ExecutionEngine(JETSON_TX1)
        model = AnalyticEntropyModel(net, base_entropy=1.0)
        tuner = AccuracyTuner(engine, net, model)
        table = tuner.tune(batch=1, entropy_threshold=1.0, max_iterations=8)
        # entry 0 (dense) is admitted even at the baseline threshold,
        # and nothing beyond it is.
        assert len(table) == 1

    def test_zero_iteration_budget(self):
        from repro.nn import alexnet

        net = alexnet()
        engine = ExecutionEngine(JETSON_TX1)
        tuner = AccuracyTuner(engine, net, AnalyticEntropyModel(net))
        table = tuner.tune(batch=1, entropy_threshold=2.0, max_iterations=0)
        assert len(table) == 1


class TestContradictoryCalibration:
    def test_alternating_entropy_stream_stays_in_bounds(self):
        from repro.nn import alexnet

        pcnn = PervasiveCNN(JETSON_TX1)
        spec = ApplicationSpec(
            "age", TaskClass.INTERACTIVE, data_rate_hz=50.0
        )
        deployment = pcnn.deploy(alexnet(), spec, max_tuning_iterations=8)
        n = len(deployment.tuning_table)
        for i in range(30):
            entropy = 5.0 if i % 2 else 0.01
            deployment.process_request(observed_entropy=entropy)
            assert 0 <= deployment.calibrator.index < n

    def test_nan_entropy_rejected(self):
        from repro.core.runtime import UncertaintyMonitor

        monitor = UncertaintyMonitor(threshold=1.0)
        with pytest.raises(ValueError):
            monitor.observe(float("nan"))
        with pytest.raises(ValueError):
            monitor.observe(-0.5)


class TestRequirementEdges:
    def test_zero_span_tolerable_region(self):
        req = TimeRequirement(0.5, 0.5)
        from repro.core.satisfaction import soc_time

        assert soc_time(0.5, req) == 1.0
        assert soc_time(0.500001, req) == 0.0

    def test_compile_with_infeasible_budget_bottoms_out(self):
        """A 1 microsecond budget cannot be met; the compiler returns
        the best it can (batch 1) rather than looping forever."""
        from repro.nn import alexnet

        req = TimeRequirement(1e-6, 1e-6)
        plan = OfflineCompiler(JETSON_TX1).compile(
            alexnet(), req, data_rate_hz=50.0
        )
        assert plan.batch == 1


class TestNumericalEdges:
    def test_forward_on_constant_input(self, trained_small_net):
        from repro.nn.inference import forward

        net, params, _test = trained_small_net
        x = np.zeros((2,) + net.input_shape.as_tuple(), dtype=np.float32)
        probs = forward(net, params, x)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_forward_on_extreme_input(self, trained_small_net):
        from repro.nn.inference import forward

        net, params, _test = trained_small_net
        x = np.full((1,) + net.input_shape.as_tuple(), 1e4, dtype=np.float32)
        probs = forward(net, params, x)
        assert np.isfinite(probs).all()

    def test_full_rate_ladder_perforation_still_valid(self, trained_small_net):
        from repro.nn.inference import forward
        from repro.nn.perforation import RATE_LADDER

        net, params, test = trained_small_net
        plan = PerforationPlan(
            {layer.name: RATE_LADDER[-1] for layer in net.conv_layers}
        )
        probs = forward(net, params, test.images[:4], plan)
        assert np.isfinite(probs).all()


class TestFaultInjectionRobustness:
    """The chaos layer itself must be deterministic and fail loudly."""

    def _config(self):
        from repro.faults import FaultTraceConfig

        return FaultTraceConfig(
            outages=2, sm_failures=2, throttles=1, transients=3
        )

    def test_seeded_trace_is_bit_reproducible(self):
        from repro.faults import generate_fault_trace

        platforms = ["K20c", "TX1", "GTX970m"]
        a = generate_fault_trace(platforms, 30.0, self._config(), seed=9)
        b = generate_fault_trace(platforms, 30.0, self._config(), seed=9)
        assert a.to_dicts() == b.to_dicts()
        assert a.fingerprint() == b.fingerprint()
        c = generate_fault_trace(platforms, 30.0, self._config(), seed=10)
        assert c.fingerprint() != a.fingerprint()

    def test_single_sm_chip_cannot_lose_its_last_sm(self):
        from repro.faults import DegradedArchitecture, PlatformHealth

        lonely = replace(K20C, name="1-SM", n_sms=1)
        with pytest.raises(ValueError):
            DegradedArchitecture(lonely, failed_sms=1)
        # PlatformHealth clamps instead of crashing: even a 99% SM
        # failure leaves the single SM alive (nothing fails).
        health = PlatformHealth(lonely, sm_fail_fraction=0.99)
        assert health.failed_sms == 0
        assert health.architecture() is lonely

    def test_two_sm_chip_keeps_one_survivor(self):
        from repro.faults import PlatformHealth

        health = PlatformHealth(JETSON_TX1, sm_fail_fraction=0.99)
        assert health.failed_sms == JETSON_TX1.n_sms - 1
        assert health.architecture().n_sms == 1

    def test_transient_flood_never_crashes_the_health_state(self):
        from repro.faults import FaultEvent, PlatformHealth

        health = PlatformHealth(K20C)
        for i in range(50):
            consequence = health.apply(
                FaultEvent(
                    time_s=float(i), kind="transient", platform="K20c"
                )
            )
            assert consequence == "transient"
        assert health.up and not health.degraded
