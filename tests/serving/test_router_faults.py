"""Fault injection through the router: failover, retries, breakers,
degraded-architecture recompiles, and chaos determinism."""

import numpy as np
import pytest

from repro.faults import (
    FaultEvent,
    FaultTrace,
    FaultTraceConfig,
    PlatformHealth,
    generate_fault_trace,
)
from repro.gpu import K20C
from repro.serving import RequestRouter, RouterConfig, TenantLoad
from repro.workloads import RequestTrace
from tests.serving.event_log import of_kind


def _loads(tenant, arrivals):
    arr = np.asarray(arrivals, dtype=float)
    trace = RequestTrace(arrivals_s=arr, difficulty=np.ones_like(arr))
    return [TenantLoad(tenant, trace)]


def _terminal_rids(report):
    return (
        {r.request.rid for r in report.completed}
        | {r.request.rid for r in report.rejected}
    )


class TestRouterConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("queue_limit", 0),
            ("flush_timeout_s", 0.0),
            ("max_levels", 0),
            ("batch_growth", 0),
            ("max_batch", 0),
            ("min_gain", 1.0),
            ("low_water_batches", 99.0),
            ("window", 0),
            ("policy", "bogus"),
            ("retry_limit", -1),
            ("retry_backoff_s", 0.0),
            ("retry_backoff_growth", 0.5),
            ("breaker_threshold", 0),
            ("breaker_cooldown_s", 0.0),
        ],
    )
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            RouterConfig(**{field: value})

    def test_good_config_passes(self):
        RouterConfig()  # defaults must self-validate


class TestFaultValidation:
    def test_unknown_platform_in_trace_raises(self, deployments, snappy_tenant):
        router = RequestRouter(deployments)
        faults = FaultTrace(
            [FaultEvent(time_s=0.0, kind="transient", platform="eniac")]
        )
        with pytest.raises(ValueError, match="eniac"):
            router.run(_loads(snappy_tenant, [0.0]), faults)

    def test_clean_run_has_no_resilience_stats(self, deployments, snappy_tenant):
        report = RequestRouter(deployments).run(_loads(snappy_tenant, [0.0]))
        assert report.resilience is None

    def test_faulted_run_reports_resilience(self, deployments, snappy_tenant):
        report = RequestRouter(deployments).run(
            _loads(snappy_tenant, [0.0]), FaultTrace()
        )
        assert report.resilience is not None
        assert report.resilience.faults_injected == 0


class TestTransientsAndRetries:
    def _single(self, deployments, **overrides):
        config = RouterConfig(retry_backoff_s=0.01, **overrides)
        return RequestRouter({"K20c": deployments["K20c"]}, config)

    def test_transient_retries_then_completes(self, deployments, snappy_tenant):
        router = self._single(deployments)
        faults = FaultTrace(
            [FaultEvent(time_s=0.0, kind="transient", platform="K20c")]
        )
        report = router.run(_loads(snappy_tenant, [0.001]), faults)
        assert len(report.completed) == 1
        assert not report.rejected
        res = report.resilience
        assert res.batch_failures == 1
        assert res.retries == 1
        assert len(of_kind(report.events, "batch_failed")) == 1
        (retry,) = of_kind(report.events, "retry")
        assert retry.detail["attempt"] == 1

    def test_exhausted_retries_reject_explicitly(
        self, deployments, snappy_tenant
    ):
        router = self._single(deployments, retry_limit=1)
        faults = FaultTrace([
            FaultEvent(time_s=0.0, kind="transient", platform="K20c"),
            FaultEvent(time_s=0.0, kind="transient", platform="K20c"),
        ])
        report = router.run(_loads(snappy_tenant, [0.001]), faults)
        assert not report.completed
        assert [r.reason for r in report.rejected] == ["retries-exhausted"]
        assert report.resilience.retries == 1

    def test_health_blind_transient_rejects_failed(
        self, deployments, snappy_tenant
    ):
        router = self._single(deployments, resilience=False)
        faults = FaultTrace(
            [FaultEvent(time_s=0.0, kind="transient", platform="K20c")]
        )
        report = router.run(_loads(snappy_tenant, [0.001]), faults)
        assert [r.reason for r in report.rejected] == ["failed"]
        assert report.resilience.retries == 0
        assert not of_kind(report.events, "retry")


class TestOutageFailover:
    def test_outage_evacuates_to_survivor(self, deployments, background_tenant):
        arrivals = [i * 0.001 for i in range(20)]
        loads = _loads(background_tenant, arrivals)
        # Find the platform the clean run actually leans on, then
        # kill exactly that one mid-storm.
        clean = RequestRouter(deployments).run(loads)
        busy = max(clean.platforms, key=lambda p: p.requests).platform
        faults = FaultTrace([
            FaultEvent(time_s=0.005, kind="outage", platform=busy, episode=0),
            FaultEvent(time_s=1.0, kind="restore", platform=busy, episode=0),
        ])
        report = RequestRouter(deployments).run(loads, faults)
        # Zero-loss: every request reached a terminal state, exactly once.
        assert _terminal_rids(report) == set(range(20))
        assert len(report.completed) + len(report.rejected) == 20
        res = report.resilience
        assert res.outages == 1
        assert res.failovers >= 1
        assert res.requests_rescued >= 1
        assert res.mttr_s == pytest.approx(1.0 - 0.005)
        assert of_kind(report.events, "failover")
        # The dead platform takes no dispatches while it is down.
        for event in of_kind(report.events, "dispatch"):
            if event.platform == busy:
                assert event.time_s < 0.005 or event.time_s >= 1.0

    def test_health_blind_outage_fails_batches(
        self, deployments, snappy_tenant
    ):
        config = RouterConfig(resilience=False)
        router = RequestRouter({"K20c": deployments["K20c"]}, config)
        faults = FaultTrace(
            [FaultEvent(time_s=0.0, kind="outage", platform="K20c", episode=0)]
        )
        report = router.run(_loads(snappy_tenant, [0.001, 0.002]), faults)
        # The blind router keeps launching onto the corpse; everything
        # fails, nothing is silently lost.
        assert not report.completed
        assert {r.reason for r in report.rejected} == {"failed"}
        assert _terminal_rids(report) == {0, 1}
        assert report.resilience.batch_failures >= 1
        assert report.resilience.failovers == 0


class TestBreakerIntegration:
    def test_open_breaker_blocks_dispatch_until_probe(
        self, deployments, background_tenant
    ):
        cooldown = 0.05
        config = RouterConfig(
            breaker_threshold=1,
            breaker_cooldown_s=cooldown,
            # Back off past the cooldown: on a one-platform fleet a
            # retry landing mid-cooldown finds no open platform and is
            # explicitly rejected as saturated.
            retry_backoff_s=0.1,
        )
        router = RequestRouter({"K20c": deployments["K20c"]}, config)
        faults = FaultTrace(
            [FaultEvent(time_s=0.0, kind="transient", platform="K20c")]
        )
        report = router.run(
            _loads(background_tenant, [0.001] * 4), faults
        )
        events = report.events
        (opened,) = of_kind(events, "breaker_open")
        (half,) = of_kind(events, "breaker_half_open")
        (closed,) = of_kind(events, "breaker_close")
        assert opened.time_s < half.time_s <= closed.time_s
        # Nothing departs while the breaker is open: the next dispatch
        # after the trip is the probe, a full cooldown later.
        later = [
            e.time_s
            for e in of_kind(events, "dispatch")
            if e.time_s > opened.time_s
        ]
        assert later
        assert min(later) >= opened.time_s + cooldown
        assert min(later) == pytest.approx(half.time_s)
        # The probe succeeds, the breaker closes, the queue drains.
        assert len(report.completed) == 4
        assert not report.rejected
        assert report.resilience.breaker_opens == 1
        assert report.resilience.breaker_closes == 1


class TestDegradedRecompile:
    def test_sm_failure_forces_recompile(self, deployments, background_tenant):
        deployment = deployments["K20c"]
        router = RequestRouter({"K20c": deployment})
        health = PlatformHealth(K20C, sm_fail_fraction=0.25)
        surviving = K20C.n_sms - health.failed_sms
        faults = FaultTrace([
            FaultEvent(
                time_s=0.0005, kind="sm_fail", platform="K20c",
                sm_fail_fraction=0.25, episode=0,
            ),
            FaultEvent(time_s=0.5, kind="sm_recover", platform="K20c", episode=0),
        ])
        loads = _loads(background_tenant, [0.001, 0.002, 0.003])
        before = deployment.engine.stats.compile_misses
        report = router.run(loads, faults)
        after = deployment.engine.stats.compile_misses
        # The ladder was re-targeted: real compile-cache misses keyed
        # on the degraded architecture's health-keyed name.
        assert after > before
        degraded_compiles = [
            e for e in of_kind(report.events, "compile")
            if "@sm" in (e.platform or "")
        ]
        assert degraded_compiles
        for event in degraded_compiles:
            assert ("@sm%d," % surviving) in event.platform
        # Requests served while degraded still complete.
        assert len(report.completed) == 3

    def test_degraded_plan_respects_surviving_sms(self, deployments):
        deployment = deployments["K20c"]
        arch = PlatformHealth(K20C, sm_fail_fraction=0.25).architecture()
        plan = deployment.engine.compile_with_batch(
            deployment.network, 1, arch=arch
        )
        assert plan.arch.n_sms == arch.n_sms < K20C.n_sms
        # Occupancy/optSM were recomputed against the surviving SMs.
        assert plan.max_opt_sm <= arch.n_sms
        assert all(s.opt_sm <= arch.n_sms for s in plan.schedules)

    def test_refaulting_same_state_is_cache_hit(
        self, deployments, background_tenant
    ):
        deployment = deployments["K20c"]
        router = RequestRouter({"K20c": deployment})
        faults = FaultTrace([
            FaultEvent(
                time_s=0.0005, kind="sm_fail", platform="K20c",
                sm_fail_fraction=0.25, episode=0,
            ),
        ])
        loads = _loads(background_tenant, [0.001])
        router.run(loads, faults)  # warms the degraded-arch plan cache
        before = deployment.engine.stats.compile_misses
        report = router.run(loads, faults)
        assert deployment.engine.stats.compile_misses == before
        assert of_kind(report.events, "cache_hit")


class TestChaosDeterminism:
    def _chaos(self, seed):
        return generate_fault_trace(
            ["K20c", "TX1"],
            horizon_s=0.06,
            config=FaultTraceConfig(
                outages=1,
                outage_duration_s=0.02,
                transients=2,
                start_window=0.5,
            ),
            seed=seed,
        )

    def test_same_seed_is_bit_identical(self, deployments, background_tenant):
        loads = _loads(
            background_tenant, [i * 0.002 for i in range(30)]
        )
        faults = self._chaos(seed=5)
        a = RequestRouter(deployments).run(loads, faults)
        b = RequestRouter(deployments).run(loads, faults)
        assert a.fingerprint() == b.fingerprint()
        assert a.to_dict(include_events=False) == b.to_dict(include_events=False)

    def test_different_seeds_diverge(self, deployments, background_tenant):
        loads = _loads(
            background_tenant, [i * 0.002 for i in range(30)]
        )
        a = RequestRouter(deployments).run(loads, self._chaos(seed=5))
        c = RequestRouter(deployments).run(loads, self._chaos(seed=6))
        assert a.fingerprint() != c.fingerprint()
