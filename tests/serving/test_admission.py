"""Tests for the oracle's admission controller: backpressure and
rescue."""

import pytest

from repro.core.satisfaction import TimeRequirement
from repro.serving import (
    DegradationController,
    DegradationLadder,
    Request,
    Tenant,
)
from repro.serving.dispatch import PlatformState
from tests.serving.event_loop import AdmissionController, Dispatcher


@pytest.fixture
def states(deployments):
    built = {}
    for name, deployment in deployments.items():
        ladder = DegradationLadder(deployment, max_levels=3)
        base = ladder[0].exec_time_s
        built[name] = PlatformState(
            name=name,
            deployment=deployment,
            ladder=ladder,
            controller=DegradationController(
                n_levels=len(ladder),
                high_water_s=3.0 * base,
                low_water_s=0.75 * base,
            ),
            flush_timeout_s=0.05,
        )
    return built


def _controller(states, queue_limit=4, **kwargs):
    return AdmissionController(
        Dispatcher(states), queue_limit=queue_limit, **kwargs
    )


def _request(rid=0, unusable=0.5, priority=1):
    requirement = TimeRequirement(min(0.1, unusable), unusable)
    tenant = Tenant("t", requirement, priority)
    return Request(rid=rid, tenant=tenant, arrival_s=0.0)


class TestBackpressure:
    def test_admits_when_queues_open(self, states):
        admission = _controller(states)
        decision = admission.admit(_request(), now=0.0)
        assert decision.admitted
        assert decision.reason == "ok"
        assert decision.platform in states

    def test_saturated_when_every_queue_full(self, states):
        admission = _controller(states, queue_limit=2)
        for state in states.values():
            state.queue.extend(_request(rid=i) for i in range(2))
        decision = admission.admit(_request(rid=99), now=0.0)
        assert not decision.admitted
        assert decision.reason == "saturated"
        assert decision.platform is None

    def test_one_open_platform_still_admits(self, states):
        admission = _controller(states, queue_limit=2)
        states["TX1"].queue.extend(_request(rid=i) for i in range(2))
        decision = admission.admit(_request(rid=99), now=0.0)
        assert decision.admitted
        assert decision.platform == "K20c"

    def test_rejects_bad_queue_limit(self, states):
        with pytest.raises(ValueError):
            _controller(states, queue_limit=0)


class TestFeasibilityAndRescue:
    def test_deadline_free_request_always_ok(self, states):
        admission = _controller(states)
        decision = admission.admit(
            _request(unusable=float("inf")), now=0.0
        )
        assert decision.admitted
        assert decision.reason == "ok"

    def test_impossible_deadline_is_infeasible(self, states):
        admission = _controller(states)
        decision = admission.admit(_request(unusable=1e-9), now=0.0)
        assert not decision.admitted
        assert decision.reason == "infeasible"

    def test_rescue_escalates_a_deeper_rung(self, states):
        # Pick a deadline the rung-0 path misses (because assembly
        # waits for the flush timeout) but a deeper, bigger-batch rung
        # makes -- the degrade-before-reject path.
        admission = _controller(states)
        state = states["K20c"]
        rung0 = state.ladder[0]
        if len(state.ladder) < 2 or rung0.batch > 1:
            pytest.skip("ladder shape cannot stage the rescue")
        # Saturate rung 0's predicted latency with queued work so the
        # bigger-batch rung 1 (which drains the queue in fewer
        # executions) is the only feasible path.
        state.queue.extend(_request(rid=i) for i in range(4))
        states["TX1"].queue.extend(_request(rid=10 + i) for i in range(4))
        tight = 4 * rung0.exec_time_s  # < queue drain at rung 0
        decision = admission.admit(
            _request(rid=99, unusable=tight), now=0.0
        )
        if decision.admitted:
            assert decision.reason in ("ok", "ok-degraded")
            if decision.reason == "ok-degraded":
                chosen = states[decision.platform]
                assert chosen.controller.level == decision.candidate.level
                assert decision.candidate.level > 0

    def test_no_rescue_when_degradation_disabled(self, states):
        for state in states.values():
            state.controller.enabled = False
        admission = _controller(states, degrade_on_admission=False)
        state = states["K20c"]
        state.queue.extend(_request(rid=i) for i in range(4))
        states["TX1"].queue.extend(_request(rid=10 + i) for i in range(4))
        tight = 2 * state.ladder[0].exec_time_s
        decision = admission.admit(_request(rid=99, unusable=tight), now=0.0)
        # Whatever the verdict, it must never be a degraded admission.
        assert decision.reason != "ok-degraded"
        for state in states.values():
            assert state.controller.level == 0
