"""Tests for the runtime kernel manager, monitor and calibrator."""

import pytest

from repro.core.engine import ExecutionEngine
from repro.core.offline import OfflineCompiler
from repro.core.runtime import (
    AccuracyTuner,
    AnalyticEntropyModel,
    Calibrator,
    RuntimeKernelManager,
    TuningTable,
    UncertaintyMonitor,
)
from repro.gpu import JETSON_TX1, K20C
from repro.nn.models import alexnet


@pytest.fixture(scope="module")
def compiled():
    return OfflineCompiler(K20C).compile_with_batch(alexnet(), 1)


@pytest.fixture(scope="module")
def table():
    net = alexnet()
    engine = ExecutionEngine(JETSON_TX1)
    tuner = AccuracyTuner(engine, net, AnalyticEntropyModel(net))
    return tuner.tune(batch=1, entropy_threshold=1.4, max_iterations=25)


class TestRuntimeKernelManager:
    def test_execute_covers_all_layers(self, compiled):
        report = RuntimeKernelManager(K20C).execute(compiled)
        assert [layer.name for layer in report.layers] == [
            s.name for s in compiled.schedules
        ]
        assert report.total_time_s > 0
        assert report.total_energy_joules > 0

    def test_psm_confines_to_opt_sm(self, compiled):
        report = RuntimeKernelManager(K20C, power_gating=True).execute(compiled)
        for layer, schedule in zip(report.layers, compiled.schedules):
            assert layer.sms_used <= schedule.opt_sm
            assert layer.powered_sms <= max(schedule.opt_sm, layer.sms_used)

    def test_gating_saves_energy(self, compiled):
        gated = RuntimeKernelManager(
            K20C, power_gating=True, use_priority_sm=True
        ).execute(compiled)
        ungated = RuntimeKernelManager(
            K20C, power_gating=False, use_priority_sm=False
        ).execute(compiled)
        assert gated.total_energy_joules < ungated.total_energy_joules

    def test_gating_costs_little_time(self, compiled):
        """The spread-capped PSM packing keeps the latency overhead of
        SM confinement small (<25%)."""
        gated = RuntimeKernelManager(
            K20C, power_gating=True, use_priority_sm=True
        ).execute(compiled)
        ungated = RuntimeKernelManager(
            K20C, power_gating=False, use_priority_sm=False
        ).execute(compiled)
        assert gated.total_time_s < 1.25 * ungated.total_time_s

    def test_time_model_prediction_quality(self, compiled):
        """The offline time model tracks the simulator within 40% per
        layer (it is a steady-state approximation)."""
        report = RuntimeKernelManager(K20C).execute(compiled)
        for layer in report.layers:
            assert layer.prediction_error < 0.4

    def test_analytic_fallback_for_huge_grids(self):
        plan = OfflineCompiler(K20C).compile_with_batch(alexnet(), 64)
        manager = RuntimeKernelManager(K20C, max_sim_ctas=64)
        report = manager.execute(plan)
        assert report.total_time_s > 0


class TestUncertaintyMonitor:
    def test_mean_over_window(self):
        monitor = UncertaintyMonitor(threshold=1.0, window=3)
        monitor.observe(0.5)
        monitor.observe(1.5)
        assert monitor.mean_entropy == pytest.approx(1.0)

    def test_violation_detection(self):
        monitor = UncertaintyMonitor(threshold=1.0, window=2)
        assert not monitor.observe(0.9)
        assert monitor.observe(1.5)  # mean 1.2 > 1.0

    def test_window_slides(self):
        monitor = UncertaintyMonitor(threshold=1.0, window=2)
        monitor.observe(5.0)
        monitor.observe(0.1)
        monitor.observe(0.1)
        assert not monitor.exceeded()

    def test_single_outlier_smoothed(self):
        monitor = UncertaintyMonitor(threshold=1.0, window=8)
        for _ in range(7):
            monitor.observe(0.5)
        assert not monitor.observe(3.0)

    def test_reset(self):
        monitor = UncertaintyMonitor(threshold=1.0)
        monitor.observe(5.0)
        monitor.reset()
        assert monitor.mean_entropy is None

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            UncertaintyMonitor(threshold=0.0)
        with pytest.raises(ValueError):
            UncertaintyMonitor(threshold=1.0, window=0)
        monitor = UncertaintyMonitor(threshold=1.0)
        with pytest.raises(ValueError):
            monitor.observe(-1.0)


class TestCalibrator:
    def test_starts_at_fastest(self, table):
        calibrator = Calibrator(table, threshold=1.4, window=2)
        assert calibrator.index == len(table) - 1

    def test_backtracks_on_sustained_violation(self, table):
        """Section IV.C.3: uncertainty above threshold walks the path
        back toward the dense network."""
        calibrator = Calibrator(table, threshold=1.4, window=2)
        start = calibrator.index
        for _ in range(2):
            calibrator.observe(2.5)
        assert calibrator.index < start

    def test_reaches_dense_under_relentless_violation(self, table):
        calibrator = Calibrator(table, threshold=1.4, window=1)
        for _ in range(len(table) + 3):
            calibrator.observe(5.0)
        assert calibrator.at_dense
        # stays pinned at dense
        calibrator.observe(5.0)
        assert calibrator.index == 0

    def test_holds_when_clean(self, table):
        calibrator = Calibrator(
            table, threshold=1.4, window=4, allow_advance=False
        )
        start = calibrator.index
        for _ in range(10):
            calibrator.observe(0.2)
        assert calibrator.index == start

    def test_advances_back_when_inputs_get_easy(self, table):
        if len(table) < 2:
            pytest.skip("tuning path too short")
        calibrator = Calibrator(table, threshold=1.4, window=2)
        # force one backtrack
        calibrator.observe(9.0)
        backed = calibrator.index
        # then a stream of easy inputs
        for _ in range(12):
            calibrator.observe(0.05)
        assert calibrator.index >= backed

    def test_history_records_actions(self, table):
        calibrator = Calibrator(table, threshold=1.4, window=1)
        calibrator.observe(9.0)
        assert calibrator.history[-1].action == "backtrack"

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            Calibrator(TuningTable(entries=[]), threshold=1.0)
