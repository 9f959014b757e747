"""Tests for repro.obs.metrics: instruments, registry, percentile,
left-to-right sums."""

import math
import sys

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    linear_percentile,
    linear_percentiles,
    ordered_sum,
)
from tests.py312_sum import sum312


class TestOrderedSum:
    def test_adds_left_to_right_whatever_the_interpreter(self):
        values = [1e16, 1.0, -1e16]
        assert ordered_sum(values) == 0.0
        assert ordered_sum([1.0, 2.0], 0.5) == 3.5
        # Python 3.12's compensated sum recovers the 1.0.
        assert sum312(values) == 1.0
        assert sum(values) == (1.0 if sys.version_info >= (3, 12) else 0.0)

    def test_matches_builtin_sum_of_python_3_11(self):
        assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
        assert ordered_sum([1, 2, True]) == 4
        assert repr(ordered_sum([-0.0])) == "0.0"
        assert ordered_sum([0.1] * 10) == 0.9999999999999999


class TestLinearPercentile:
    def test_empty_series_is_zero(self):
        assert linear_percentile([], 50.0) == 0.0
        assert linear_percentile([], 0.0) == 0.0
        assert linear_percentile([], 100.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 25.0, 50.0, 99.0, 100.0):
            assert linear_percentile([3.5], q) == 3.5

    def test_extremes_are_min_and_max(self):
        values = [5.0, 1.0, 3.0]
        assert linear_percentile(values, 0.0) == 1.0
        assert linear_percentile(values, 100.0) == 5.0

    def test_linear_interpolation_matches_numpy_convention(self):
        # numpy.percentile([1, 2, 3, 4], 75, method="linear") == 3.25
        assert linear_percentile([1.0, 2.0, 3.0, 4.0], 75.0) == pytest.approx(3.25)
        assert linear_percentile([1.0, 2.0], 50.0) == pytest.approx(1.5)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            linear_percentile([1.0], -0.1)
        with pytest.raises(ValueError, match="percentile"):
            linear_percentile([1.0], 100.1)

    def test_many_percentiles_from_one_sort(self):
        values = [4.0, 1.0, 3.0, 2.0, 9.5]
        qs = (0.0, 50.0, 95.0, 99.0, 100.0)
        assert linear_percentiles(values, qs) == [
            linear_percentile(values, q) for q in qs
        ]
        assert linear_percentiles([], qs) == [0.0] * len(qs)
        with pytest.raises(ValueError, match="percentile"):
            linear_percentiles([1.0], (50.0, 100.1))

    def test_input_order_irrelevant(self):
        assert linear_percentile([3.0, 1.0, 2.0], 50.0) == linear_percentile(
            [1.0, 2.0, 3.0], 50.0
        )


class TestCounter:
    def test_inc(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.snapshot() == {"value": 3.5}

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(7.0)
        gauge.add(-2.0)
        assert gauge.value == 5.0


class TestHistogram:
    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError, match="at least one"):
            Histogram([])

    def test_upper_inclusive_bucket_edges(self):
        hist = Histogram([1.0, 2.0])
        hist.observe(1.0)  # exactly at the first edge: first bucket
        hist.observe(2.0)  # exactly at the second edge: second bucket
        hist.observe(2.0000001)  # just past: overflow
        assert hist.bucket_counts == [1, 1, 1]

    def test_flush_policy_convention_match(self):
        # FlushPolicy admits an arrival exactly at the flush point
        # (arrival <= flush_at); the histogram mirrors it: a value
        # exactly at an edge lands in the earlier bucket.
        from repro.core.runtime.server import FlushPolicy

        policy = FlushPolicy(capacity=8, timeout_s=1.0)
        boundary = policy.flush_at(0.0)
        assert policy.admits(1, boundary, 0.0)  # inclusive edge
        hist = Histogram([boundary])
        hist.observe(boundary)
        assert hist.bucket_counts == [1, 0]  # inclusive edge

    def test_stats_ride_along(self):
        hist = Histogram([10.0])
        for v in (1.0, 5.0, 12.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == 18.0
        assert hist.min == 1.0
        assert hist.max == 12.0

    def test_bulk_sum_adds_left_to_right(self):
        """Pairwise (``np.sum``), exact (``math.fsum``) and 3.12's
        compensated ``sum`` all give 1.0 here; observing in order does
        not."""
        hist = Histogram([1.0])
        hist.observe_many([0.1] * 10)
        assert hist.sum == 0.9999999999999999
        assert hist.bucket_counts == [10, 0]

    def test_empty_histogram_snapshot(self):
        hist = Histogram([1.0])
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["buckets"] == [["1", 0], ["inf", 0]]

    def test_cumulative_ends_with_inf_total(self):
        hist = Histogram([1.0, 2.0])
        for v in (0.5, 1.5, 9.0):
            hist.observe(v)
        pairs = hist.cumulative()
        assert pairs[-1][0] == math.inf
        assert pairs[-1][1] == 3
        assert [c for _, c in pairs] == [1, 2, 3]  # monotone


class TestMetricsRegistry:
    def test_series_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter("batches_total", platform="a").inc()
        registry.counter("batches_total", platform="b").inc(2)
        assert registry.n_series == 2
        assert registry.counter("batches_total", platform="a").value == 1.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("x")

    def test_histogram_edge_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (1.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("lat", (1.0, 3.0))

    def test_snapshot_sorted_and_stable_under_insertion_order(self):
        first = MetricsRegistry()
        first.counter("b", platform="y").inc()
        first.counter("a").inc()
        first.gauge("c", platform="x", tier="1").set(2)
        second = MetricsRegistry()
        second.gauge("c", tier="1", platform="x").set(2)
        second.counter("a").inc()
        second.counter("b", platform="y").inc()
        assert first.snapshot() == second.snapshot()
        assert list(first.snapshot()) == sorted(first.snapshot())

    def test_families_report_kind_and_help(self):
        registry = MetricsRegistry()
        registry.counter("n", "things counted")
        assert registry.families() == [("n", "counter", "things counted")]
