"""Tests for platform state (repro.serving.dispatch) and the oracle's
placement and queue helpers."""

import pytest

from repro.core.satisfaction import TimeRequirement
from repro.serving import (
    DegradationController,
    DegradationLadder,
    PlatformState,
    Request,
    Tenant,
)
from tests.serving.event_loop import Dispatcher, backlog_s, order_queue


@pytest.fixture(scope="module")
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


def _request(rid=0, arrival=0.0, priority=1, unusable=0.5):
    requirement = TimeRequirement(min(0.1, unusable), unusable)
    tenant = Tenant("t%d" % priority, requirement, priority)
    return Request(rid=rid, tenant=tenant, arrival_s=arrival)


class TestScoring:
    def test_idle_platform_latency_is_assembly_plus_exec(self, states):
        dispatcher = Dispatcher(states)
        state = states["K20c"]
        candidate = dispatcher.score(state, _request(), now=0.0)
        rung = state.ladder[0]
        expected = state.flush_timeout_s + rung.exec_time_s
        if rung.batch == 1:  # a lone request fills a batch-1 plan
            expected = rung.exec_time_s
        assert candidate.predicted_latency_s == pytest.approx(expected)
        assert candidate.feasible

    def test_queue_depth_raises_predicted_latency(self, states):
        dispatcher = Dispatcher(states)
        state = states["K20c"]
        idle = dispatcher.score(state, _request(), now=0.0)
        state.queue.extend(_request(rid=i) for i in range(10))
        try:
            queued = dispatcher.score(state, _request(), now=0.0)
        finally:
            state.queue.clear()
        assert queued.predicted_latency_s > idle.predicted_latency_s

    def test_deeper_level_scores_that_rung(self, states):
        dispatcher = Dispatcher(states)
        state = states["K20c"]
        deep = dispatcher.score(state, _request(), now=0.0, level=1)
        assert deep.level == 1
        assert deep.batch == state.ladder[1].batch

    def test_hopeless_deadline_is_infeasible(self, states):
        dispatcher = Dispatcher(states)
        state = states["K20c"]
        candidate = dispatcher.score(
            state, _request(unusable=1e-6), now=0.0
        )
        assert not candidate.feasible
        assert candidate.predicted_soc == 0.0


class TestChoice:
    def test_soc_policy_prefers_higher_soc(self, states):
        dispatcher = Dispatcher(states, policy="soc")
        best = dispatcher.choose(_request(), now=0.0)
        scored = dispatcher.candidates(_request(), now=0.0)
        assert best.predicted_soc == max(c.predicted_soc for c in scored)

    def test_fifo_policy_prefers_shortest_wait(self, states):
        dispatcher = Dispatcher(states, policy="fifo")
        best = dispatcher.choose(_request(), now=0.0)
        scored = dispatcher.candidates(_request(), now=0.0)
        assert best.predicted_latency_s == min(
            c.predicted_latency_s for c in scored
        )

    def test_among_restricts_platforms(self, states):
        dispatcher = Dispatcher(states)
        best = dispatcher.choose(_request(), now=0.0, among=["TX1"])
        assert best.platform == "TX1"
        assert dispatcher.choose(_request(), now=0.0, among=[]) is None

    def test_rejects_unknown_policy(self, states):
        with pytest.raises(ValueError, match="soc, fifo"):
            Dispatcher(states, policy="round-robin")


class TestQueueOrdering:
    def test_soc_order_priority_then_deadline_then_rid(self, states):
        state = states["K20c"]
        low = _request(rid=0, priority=0)
        high_late = _request(rid=1, priority=2, unusable=2.0)
        high_soon = _request(rid=2, priority=2, unusable=0.3)
        state.queue.extend([low, high_late, high_soon])
        try:
            order_queue(state, "soc")
            assert [r.rid for r in state.queue] == [2, 1, 0]
        finally:
            state.queue.clear()

    def test_fifo_order_is_arrival_order(self, states):
        state = states["K20c"]
        state.queue.extend(
            [_request(rid=2, priority=9), _request(rid=0), _request(rid=1)]
        )
        try:
            order_queue(state, "fifo")
            assert [r.rid for r in state.queue] == [0, 1, 2]
        finally:
            state.queue.clear()


class TestBacklog:
    def test_backlog_counts_busy_and_queue(self, states):
        state = states["TX1"]
        rung = state.ladder[state.controller.level]
        state.busy_until = 1.0
        state.queue.extend(_request(rid=i) for i in range(rung.batch))
        try:
            backlog = backlog_s(state, now=0.8)
            assert backlog == pytest.approx(0.2 + rung.exec_time_s)
        finally:
            state.queue.clear()
            state.busy_until = 0.0

    def test_idle_empty_platform_has_zero_backlog(self, states):
        assert backlog_s(states["TX1"], now=5.0) == 0.0
