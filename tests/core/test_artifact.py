"""Tests for repro.core.offline.artifact: plan serialization."""

import json

import pytest

from repro.core.engine import ExecutionEngine
from repro.core.offline import OfflineCompiler, load_plan, plan_from_dict, plan_to_dict, save_plan
from repro.core.runtime import RuntimeKernelManager
from repro.gpu import JETSON_TX1
from repro.nn import alexnet
from repro.nn.perforation import PerforationPlan


@pytest.fixture(scope="module")
def plan():
    compiler = OfflineCompiler(JETSON_TX1)
    perforation = PerforationPlan({"conv2": 0.3, "conv4": 0.1})
    return compiler.compile_with_batch(alexnet(), 2, perforation)


class TestRoundTrip:
    def test_dict_roundtrip_preserves_schedule(self, plan):
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.batch == plan.batch
        assert restored.arch.name == plan.arch.name
        assert restored.network.name == plan.network.name
        assert restored.total_time_s == pytest.approx(plan.total_time_s)
        for a, b in zip(plan.schedules, restored.schedules):
            assert a.name == b.name
            assert a.tuned.kernel == b.tuned.kernel
            assert (a.opt_tlp, a.opt_sm, a.gemm_count) == (
                b.opt_tlp,
                b.opt_sm,
                b.gemm_count,
            )
            assert a.shape == b.shape

    def test_perforation_preserved(self, plan):
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.perforation.rate("conv2") == pytest.approx(0.3)
        assert restored.perforation.rate("conv4") == pytest.approx(0.1)

    def test_file_roundtrip(self, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        restored = load_plan(path)
        assert restored.batch == plan.batch
        # and it is valid JSON on disk
        with open(path) as handle:
            data = json.load(handle)
        assert data["version"] == 1

    def test_restored_plan_executes(self, plan):
        """A reloaded artifact drives the runtime manager unchanged."""
        restored = plan_from_dict(plan_to_dict(plan))
        report = RuntimeKernelManager(JETSON_TX1).execute(restored)
        assert report.total_time_s > 0
        assert len(report.layers) == len(plan.schedules)


class TestValidation:
    def test_rejects_unknown_version(self, plan):
        data = plan_to_dict(plan)
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            plan_from_dict(data)

    def test_rejects_layer_drift(self, plan):
        data = plan_to_dict(plan)
        data["schedules"][0]["layer"] = "conv_renamed"
        with pytest.raises(ValueError, match="drift"):
            plan_from_dict(data)

    def test_rejects_unknown_network(self, plan):
        data = plan_to_dict(plan)
        data["network"] = "LeNet-1998"
        with pytest.raises(KeyError):
            plan_from_dict(data)

    def test_artifact_is_flat_json(self, plan):
        text = json.dumps(plan_to_dict(plan))
        assert "conv2" in text


class TestTuningTableArtifact:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.core.runtime import AccuracyTuner, AnalyticEntropyModel
        from repro.nn import alexnet

        net = alexnet()
        engine = ExecutionEngine(JETSON_TX1)
        tuner = AccuracyTuner(engine, net, AnalyticEntropyModel(net))
        return tuner.tune(batch=1, entropy_threshold=1.3, max_iterations=6)

    def test_roundtrip_preserves_path(self, table, tmp_path):
        from repro.core.offline import load_tuning_table, save_tuning_table

        path = str(tmp_path / "table.json")
        save_tuning_table(table, path)
        loaded = load_tuning_table(path)
        assert len(loaded) == len(table)
        assert loaded.entropy_threshold == pytest.approx(
            table.entropy_threshold
        )
        for a, b in zip(table.entries, loaded.entries):
            assert a.iteration == b.iteration
            assert a.entropy == pytest.approx(b.entropy)
            assert a.speedup == pytest.approx(b.speedup)
            assert a.plan.rates == b.plan.rates

    def test_loaded_table_drives_calibration(self, table, tmp_path):
        from repro.core.offline import load_tuning_table, save_tuning_table
        from repro.core.runtime import Calibrator

        path = str(tmp_path / "table.json")
        save_tuning_table(table, path)
        loaded = load_tuning_table(path)
        calibrator = Calibrator(loaded, threshold=1.3, window=1)
        start = calibrator.index
        calibrator.observe(9.0)
        assert calibrator.index <= start

    def test_loaded_table_executes(self, table, tmp_path):
        from repro.core.offline import load_tuning_table, save_tuning_table
        from repro.core.runtime import RuntimeKernelManager

        path = str(tmp_path / "table.json")
        save_tuning_table(table, path)
        loaded = load_tuning_table(path)
        report = RuntimeKernelManager(JETSON_TX1).execute(
            loaded.fastest.compiled
        )
        assert report.total_time_s > 0

    def test_empty_table_rejected(self):
        from repro.core.offline.artifact import tuning_table_from_dict

        with pytest.raises(ValueError, match="no entries"):
            tuning_table_from_dict(
                {"version": 1, "entropy_threshold": 1.0, "entries": []}
            )
