"""Tests for repro.core.runtime.server: the serving loop."""

import math

import numpy as np
import pytest

from repro.core import ApplicationSpec, PervasiveCNN, TaskClass
from repro.core.runtime import InferenceServer
from repro.core.runtime.server import FlushPolicy
from repro.gpu import JETSON_TX1
from repro.nn import alexnet
from repro.workloads import (
    RequestTrace,
    background_trace,
    difficulty_shift,
    interactive_trace,
    realtime_trace,
)


@pytest.fixture(scope="module")
def deployment():
    pcnn = PervasiveCNN(JETSON_TX1)
    spec = ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, data_rate_hz=50.0
    )
    return pcnn.deploy(alexnet(), spec, max_tuning_iterations=8)


def _fresh_deployment():
    pcnn = PervasiveCNN(JETSON_TX1)
    spec = ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, data_rate_hz=50.0
    )
    return pcnn.deploy(alexnet(), spec, max_tuning_iterations=8)


class TestServing:
    def test_every_request_served_once(self, deployment):
        server = InferenceServer(deployment)
        trace = interactive_trace(n_requests=17, think_time_s=0.05, seed=1)
        report = server.serve(trace)
        assert report.n_requests == 17
        assert [r.index for r in report.requests] == list(range(17))

    def test_latency_accounting_consistent(self, deployment):
        server = InferenceServer(deployment)
        trace = realtime_trace(duration_s=1.0, fps=20)
        report = server.serve(trace)
        for request in report.requests:
            assert request.finish_s >= request.start_s >= request.arrival_s
            assert request.latency_s == pytest.approx(
                request.queueing_s + (request.finish_s - request.start_s)
            )

    def test_gpu_never_double_booked(self, deployment):
        server = InferenceServer(deployment)
        trace = realtime_trace(duration_s=0.5, fps=40)
        report = server.serve(trace)
        spans = sorted(
            {(r.start_s, r.finish_s) for r in report.requests}
        )
        for (s1, f1), (s2, _f2) in zip(spans, spans[1:]):
            assert s2 >= f1 - 1e-12

    def test_flush_timeout_bounds_queueing(self, deployment):
        server = InferenceServer(deployment, flush_timeout_s=0.02)
        # sparse arrivals: batches never fill, timeout must flush
        trace = interactive_trace(n_requests=6, think_time_s=1.0, seed=2)
        report = server.serve(trace)
        for request in report.requests:
            assert request.queueing_s <= 0.02 + 0.05  # timeout + compute wait

    def test_burst_forms_batches(self, deployment):
        server = InferenceServer(deployment)
        trace = background_trace(n_photos=20, dump_gap_s=0.001)
        report = server.serve(trace)
        assert report.batches < 20  # batching actually happened
        assert max(r.batch for r in report.requests) > 1

    def test_energy_accumulates(self, deployment):
        server = InferenceServer(deployment)
        report = server.serve(interactive_trace(n_requests=8, seed=3))
        assert report.total_energy_j > 0
        assert report.energy_per_request_j == pytest.approx(
            report.total_energy_j / 8
        )

    def test_percentiles(self, deployment):
        server = InferenceServer(deployment)
        report = server.serve(interactive_trace(n_requests=12, seed=4))
        assert report.p99_latency_s >= report.mean_latency_s * 0.5

    def test_rejects_bad_timeout(self, deployment):
        with pytest.raises(ValueError):
            InferenceServer(deployment, flush_timeout_s=0.0)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timeout(self, deployment, timeout):
        """NaN slips past the ``<= 0`` check and would serve NaN
        latencies; it must stop at construction, naming the field."""
        with pytest.raises(ValueError, match="flush_timeout_s must be finite"):
            InferenceServer(deployment, flush_timeout_s=timeout)
        with pytest.raises(ValueError, match="timeout_s must be finite"):
            FlushPolicy(capacity=1, timeout_s=timeout)


class TestServingEdgeCases:
    def test_empty_trace_yields_empty_report(self, deployment):
        server = InferenceServer(deployment)
        report = server.serve(
            RequestTrace(arrivals_s=np.array([]), difficulty=np.array([]))
        )
        assert report.n_requests == 0
        assert report.batches == 0
        assert report.total_energy_j == 0.0
        assert report.mean_latency_s == 0.0
        assert report.p99_latency_s == 0.0
        assert report.energy_per_request_j == 0.0
        assert report.to_dict()["n_requests"] == 0

    def test_single_request_below_batch_capacity(self, deployment):
        capacity = deployment.current_entry.compiled.batch
        server = InferenceServer(deployment, flush_timeout_s=0.5)
        trace = RequestTrace(
            arrivals_s=np.array([0.1]), difficulty=np.array([1.0])
        )
        report = server.serve(trace)
        assert report.n_requests == 1
        assert report.batches == 1
        served = report.requests[0]
        assert served.batch == 1
        assert served.batch <= capacity
        # A drained stream flushes immediately: the lone request must
        # not sit out the whole 0.5 s assembly timeout.
        assert served.start_s == pytest.approx(0.1)

    def test_arrival_exactly_at_flush_boundary_joins_batch(self, deployment):
        capacity = deployment.current_entry.compiled.batch
        if capacity < 2:
            pytest.skip("tuned batch too small to share")
        timeout = 0.05
        server = InferenceServer(deployment, flush_timeout_s=timeout)
        # Second request lands exactly when the first one's timeout
        # expires: the boundary is inclusive, so they share a batch.
        trace = RequestTrace(
            arrivals_s=np.array([0.0, timeout]),
            difficulty=np.array([1.0, 1.0]),
        )
        report = server.serve(trace)
        assert report.batches == 1
        assert [r.batch for r in report.requests] == [2, 2]

    def test_flush_policy_boundary_semantics(self):
        policy = FlushPolicy(capacity=4, timeout_s=0.1)
        assert policy.flush_at(1.0) == pytest.approx(1.1)
        assert policy.admits(1, 1.1, head_arrival_s=1.0)  # inclusive
        assert not policy.admits(1, 1.1 + 1e-9, head_arrival_s=1.0)
        assert not policy.admits(4, 1.0, head_arrival_s=1.0)  # full
        assert policy.should_flush(4, 1.0, head_arrival_s=1.0)
        assert policy.should_flush(1, 1.1, head_arrival_s=1.0)
        assert not policy.should_flush(1, 1.05, head_arrival_s=1.0)
        with pytest.raises(ValueError):
            FlushPolicy(capacity=0, timeout_s=0.1)
        with pytest.raises(ValueError):
            FlushPolicy(capacity=1, timeout_s=0.0)

    def test_report_to_dict_round_trips_through_json(self, deployment):
        import json

        server = InferenceServer(deployment)
        report = server.serve(interactive_trace(n_requests=5, seed=9))
        payload = json.loads(
            json.dumps(report.to_dict(include_requests=True))
        )
        assert payload["n_requests"] == 5
        assert len(payload["requests"]) == 5
        assert payload["requests"][0]["latency_s"] >= 0.0


class TestServingWithCalibration:
    def test_hard_stretch_triggers_backtracking(self):
        deployment = _fresh_deployment()
        if len(deployment.tuning_table) < 2:
            pytest.skip("tuning path too short")
        server = InferenceServer(deployment)
        trace = difficulty_shift(
            realtime_trace(duration_s=3.0, fps=10),
            onset_fraction=0.3,
            severity=4.0,
        )
        start_index = deployment.calibrator.index
        server.serve(trace)
        assert deployment.calibrator.index < start_index

    def test_easy_traffic_holds_position(self):
        deployment = _fresh_deployment()
        server = InferenceServer(deployment)
        start_index = deployment.calibrator.index
        server.serve(realtime_trace(duration_s=1.0, fps=10))
        assert deployment.calibrator.index >= start_index
