"""Tests for repro.core.runtime.accuracy_tuning: the greedy tuner."""

import math

import pytest

from repro.core.engine import ExecutionEngine
from repro.core.runtime.accuracy_tuning import (
    AccuracyTuner,
    AnalyticEntropyModel,
    EmpiricalEntropyEvaluator,
)
from repro.gpu import JETSON_TX1
from repro.nn.models import alexnet
from repro.nn.perforation import PerforationPlan


@pytest.fixture(scope="module")
def engine():
    return ExecutionEngine(JETSON_TX1)


@pytest.fixture(scope="module")
def net():
    return alexnet()


@pytest.fixture(scope="module")
def tuner(engine, net):
    return AccuracyTuner(engine, net, AnalyticEntropyModel(net))


@pytest.fixture(scope="module")
def table(tuner):
    return tuner.tune(batch=1, entropy_threshold=1.5, max_iterations=40)


class TestAnalyticEntropyModel:
    def test_dense_is_baseline(self, net):
        model = AnalyticEntropyModel(net, base_entropy=1.1)
        assert model.evaluate(PerforationPlan.dense()).entropy == pytest.approx(1.1)

    def test_entropy_monotone_in_rate(self, net):
        model = AnalyticEntropyModel(net)
        entropies = [
            model.evaluate(PerforationPlan({"conv3": r})).entropy
            for r in (0.0, 0.2, 0.4, 0.6)
        ]
        assert entropies == sorted(entropies)
        assert entropies[0] < entropies[-1]

    def test_later_layers_more_sensitive(self, net):
        model = AnalyticEntropyModel(net)
        early = model.evaluate(PerforationPlan({"conv1": 0.5})).entropy
        late = model.evaluate(PerforationPlan({"conv5": 0.5})).entropy
        assert late > early

    def test_rejects_bad_baseline(self, net):
        with pytest.raises(ValueError):
            AnalyticEntropyModel(net, base_entropy=0.0)


class TestGreedyTuner:
    def test_entry_zero_is_dense(self, table):
        assert table.dense.plan.is_dense()
        assert table.dense.speedup == 1.0

    def test_speedup_monotone_along_path(self, table):
        """Fig. 16: speedup increases monotonically with iterations."""
        speedups = [e.speedup for e in table.entries]
        assert speedups == sorted(speedups)
        assert table.fastest.speedup > 1.0

    def test_entropy_monotone_along_path(self, table):
        entropies = [e.entropy for e in table.entries]
        assert entropies == sorted(entropies)

    def test_threshold_respected(self, table):
        for entry in table.entries:
            assert entry.entropy <= 1.5 + 1e-9

    def test_one_layer_changes_per_iteration(self, table):
        """Fig. 12: each greedy step advances exactly one layer by one
        rung."""
        for prev, cur in zip(table.entries, table.entries[1:]):
            diffs = [
                name
                for name in set(prev.plan.rates) | set(cur.plan.rates)
                if abs(prev.plan.rate(name) - cur.plan.rate(name)) > 1e-12
            ]
            assert len(diffs) == 1

    def test_te_scores_positive(self, table):
        for entry in table.entries[1:]:
            assert entry.te_score > 0

    def test_entry_within_budget(self, table):
        strict = table.entry_within(table.dense.entropy + 1e-9)
        assert strict.iteration == 0
        loose = table.entry_within(10.0)
        assert loose is table.fastest

    def test_scheduling_tables_attached(self, table):
        entry = table.fastest
        assert "conv5" in entry.scheduling_table

    def test_tighter_threshold_shorter_path(self, tuner, table):
        tight = tuner.tune(batch=1, entropy_threshold=1.05, max_iterations=40)
        assert len(tight) <= len(table)
        assert tight.fastest.entropy <= 1.05

    def test_rejects_bad_threshold(self, tuner):
        with pytest.raises(ValueError):
            tuner.tune(batch=1, entropy_threshold=0.0)

    def test_rejects_nan_threshold_and_negative_iterations(self, tuner):
        """No entropy exceeds a NaN threshold, and a negative count
        runs no iteration: both must stop here, naming the field."""
        with pytest.raises(ValueError, match="entropy_threshold must be"):
            tuner.tune(batch=1, entropy_threshold=math.nan)
        with pytest.raises(ValueError, match="max_iterations must be"):
            tuner.tune(batch=1, entropy_threshold=1.5, max_iterations=-1)

    def test_rejects_bad_ladder(self, engine, net):
        with pytest.raises(ValueError):
            AccuracyTuner(
                engine, net, AnalyticEntropyModel(net), rate_ladder=(0.1, 0.0)
            )
        with pytest.raises(ValueError):
            AccuracyTuner(
                engine, net, AnalyticEntropyModel(net), rate_ladder=(0.1, 0.2)
            )


class TestEmpiricalEvaluator:
    def test_measures_trained_network(self, trained_small_net):
        net, params, test_set = trained_small_net
        evaluator = EmpiricalEntropyEvaluator(net, params, test_set)
        dense = evaluator.evaluate(PerforationPlan.dense())
        heavy = evaluator.evaluate(
            PerforationPlan({layer.name: 0.7 for layer in net.conv_layers})
        )
        assert dense.accuracy is not None
        assert heavy.entropy >= dense.entropy - 0.05
        assert heavy.accuracy <= dense.accuracy + 0.02

    def test_empirical_tuner_on_proxy(self, trained_small_net):
        """End-to-end: the tuner works against real measurements too."""
        net, params, test_set = trained_small_net
        engine = ExecutionEngine(JETSON_TX1)
        evaluator = EmpiricalEntropyEvaluator(net, params, test_set)
        baseline = evaluator.evaluate(PerforationPlan.dense()).entropy
        tuner = AccuracyTuner(engine, net, evaluator)
        table = tuner.tune(
            batch=8, entropy_threshold=baseline * 1.5 + 0.2, max_iterations=8
        )
        assert len(table) >= 1
        assert all(e.accuracy is not None for e in table.entries)
