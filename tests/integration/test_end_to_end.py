"""Integration tests: cross-module behaviour of the full P-CNN stack."""

import pytest

from repro.core import ApplicationSpec, ExecutionEngine, PervasiveCNN, TaskClass
from repro.core.offline import OfflineCompiler
from repro.core.runtime import (
    AccuracyTuner,
    AnalyticEntropyModel,
    EmpiricalEntropyEvaluator,
)
from repro.gpu import JETSON_TX1, K20C, list_architectures
from repro.nn.models import alexnet, googlenet, vgg16
from repro.nn.perforation import PerforationPlan
from repro.workloads import difficulty_shift, realtime_trace


class TestCrossPlatformCompilation:
    """The pervasive premise: one model, every GPU, no retraining."""

    @pytest.mark.parametrize("arch_name", ["k20c", "titanx", "gtx970m", "tx1"])
    def test_alexnet_compiles_everywhere(self, arch_name):
        from repro.gpu import get_architecture

        arch = get_architecture(arch_name)
        plan = OfflineCompiler(arch).compile_with_batch(alexnet(), 1)
        assert plan.total_time_s > 0
        assert all(s.opt_sm <= arch.n_sms for s in plan.schedules)

    def test_latency_ordering_follows_compute_power(self):
        """Batch-1 AlexNet: TitanX < K20 < 970m < TX1 latency."""
        times = {}
        for arch in list_architectures():
            plan = OfflineCompiler(arch).compile_with_batch(alexnet(), 1)
            times[arch.name] = plan.total_time_s
        assert times["TitanX"] < times["K20c"]
        assert times["K20c"] < times["GTX970m"] < times["TX1"]

    def test_tx1_alexnet_latency_in_paper_ballpark(self):
        """Paper Table III: AlexNet non-batched on TX1 takes ~25 ms
        through cuBLAS/cuDNN; our tuned backend should land within
        2x of that scale."""
        plan = OfflineCompiler(JETSON_TX1).compile_with_batch(alexnet(), 1)
        assert 0.010 < plan.total_time_s < 0.050

    def test_per_platform_kernels_differ(self):
        """Cross-platform compilation is not a no-op: the tuned tile
        or TLP differs between the mobile and server parts somewhere."""
        tx1 = OfflineCompiler(JETSON_TX1).compile_with_batch(alexnet(), 1)
        k20 = OfflineCompiler(K20C).compile_with_batch(alexnet(), 1)
        differences = [
            (a.tuned.tile, a.opt_tlp) != (b.tuned.tile, b.opt_tlp)
            for a, b in zip(tx1.schedules, k20.schedules)
        ]
        assert any(differences)


class TestEntropyModelAgreement:
    """The analytic entropy model's *shape* matches what the empirical
    evaluator measures on a trained proxy."""

    def test_both_monotone_in_rate(self, trained_small_net):
        net, params, test_set = trained_small_net
        empirical = EmpiricalEntropyEvaluator(net, params, test_set)
        analytic = AnalyticEntropyModel(
            net, base_entropy=empirical.evaluate(PerforationPlan.dense()).entropy
        )
        for model in (empirical, analytic):
            values = [
                model.evaluate(
                    PerforationPlan({"conv1": r}) if r else PerforationPlan.dense()
                ).entropy
                for r in (0.0, 0.5, 0.7)
            ]
            assert values[0] <= values[1] + 0.05
            assert values[0] <= values[2] + 0.05


class TestFig16Mechanism:
    """The entropy-guided tuner achieves speedup with bounded accuracy
    loss on a *trained* network (the Fig. 16 mechanism, scaled down)."""

    def test_empirical_tuning_speedup_and_accuracy(self, trained_small_net):
        net, params, test_set = trained_small_net
        engine = ExecutionEngine(JETSON_TX1)
        evaluator = EmpiricalEntropyEvaluator(net, params, test_set)
        dense = evaluator.evaluate(PerforationPlan.dense())
        tuner = AccuracyTuner(engine, net, evaluator)
        table = tuner.tune(
            batch=32,
            entropy_threshold=dense.entropy + 0.35,
            max_iterations=10,
        )
        fastest = table.fastest
        assert fastest.speedup >= 1.0
        # entropy-guided tuning never silently destroys accuracy:
        assert fastest.accuracy >= dense.accuracy - 0.25
        # and entropy did not move opposite to accuracy by more than
        # measurement noise (the tiny fixture net starts near-uniform,
        # where the entropy estimate is noisiest):
        if fastest.iteration > 0:
            assert fastest.entropy >= dense.entropy - 0.08


class TestCalibrationUnderShift:
    def test_distribution_shift_walks_back_the_path(self):
        pcnn = PervasiveCNN(JETSON_TX1)
        spec = ApplicationSpec(
            "age-detection", TaskClass.INTERACTIVE, data_rate_hz=50.0
        )
        deployment = pcnn.deploy(alexnet(), spec, max_tuning_iterations=12)
        if len(deployment.tuning_table) < 2:
            pytest.skip("tuning path too short")
        trace = difficulty_shift(
            realtime_trace(duration_s=1.0, fps=10), onset_fraction=0.5,
            severity=4.0,
        )
        start_index = deployment.calibrator.index
        for factor in trace.difficulty:
            entropy = deployment.current_entry.entropy * factor
            deployment.process_request(observed_entropy=entropy)
        assert deployment.calibrator.index < start_index
        # latency got *worse* (slower, more precise kernels) -- the
        # accuracy/latency trade moved the right way.
        early = deployment.outcomes[0].latency_s
        late = deployment.outcomes[-1].latency_s
        assert late >= early * 0.98


class TestMemoryGuards:
    def test_compiler_never_emits_oom_plans(self):
        """The compiler's batch decisions respect Table III's limits."""
        from repro.gpu.memory import fits_in_memory

        for net in (alexnet(), vgg16(), googlenet()):
            compiler = OfflineCompiler(JETSON_TX1)
            batch = compiler.background_batch(net)
            assert fits_in_memory(
                JETSON_TX1, net.memory_profile(), compiler.backend, batch
            )
