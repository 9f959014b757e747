"""Tests for repro.serving.router: the discrete-event fleet router."""

import json
import math

import numpy as np
import pytest

from repro.control import ControllerConfig
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.obs import metrics
from repro.serving import (
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.workloads import RequestTrace, bursty_trace
from tests.serving.event_log import of_kind


def _storm(fleet, n=600, overload=2.0, seed=42):
    rate = overload * fleet.capacity_rps()
    return bursty_trace(
        n_requests=n, rate_hz=rate, burst_factor=6.0, burst_fraction=0.3,
        seed=seed,
    )


@pytest.fixture
def snappy_load(fleet, snappy_tenant):
    return [TenantLoad(snappy_tenant, _storm(fleet))]


class TestDeterminism:
    def test_same_fleet_reruns_are_bit_identical(self, fleet, snappy_load):
        first = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        second = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert first.fingerprint() == second.fingerprint()
        # The routing outcome (unlike compile-vs-cache-hit relays,
        # which track engine cache temperature) is exactly equal.
        a = first.to_dict(include_events=False)
        b = second.to_dict(include_events=False)
        for payload in (a, b):
            for kind in ("compile", "cache_hit"):
                payload["event_counts"].pop(kind)
        assert a == b

    def test_single_router_rerun_is_bit_identical(self, fleet, snappy_load):
        router = RequestRouter(fleet, RouterConfig())
        assert (
            router.run(snappy_load).fingerprint()
            == router.run(snappy_load).fingerprint()
        )

    def test_different_policy_changes_fingerprint(self, fleet, snappy_load):
        soc = RequestRouter(fleet, RouterConfig(policy="soc")).run(snappy_load)
        fifo = RequestRouter(
            fleet, RouterConfig(policy="fifo")
        ).run(snappy_load)
        assert soc.fingerprint() != fifo.fingerprint()


class TestOverloadBehaviour:
    def test_overload_walks_the_degradation_ladder(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert len(of_kind(report.events, "degrade")) > 0
        assert any(p.peak_level > 0 for p in report.platforms)

    def test_degradation_beats_fifo_baseline(self, fleet, snappy_load):
        degraded = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        baseline = RequestRouter(
            fleet, RouterConfig(degradation=False, policy="fifo")
        ).run(snappy_load)
        assert degraded.deadline_hit_rate > baseline.deadline_hit_rate
        assert degraded.n_rejected <= baseline.n_rejected

    def test_no_degradation_config_stays_at_rung_zero(
        self, fleet, snappy_load
    ):
        report = RequestRouter(
            fleet, RouterConfig(degradation=False)
        ).run(snappy_load)
        assert of_kind(report.events, "degrade") == []
        assert all(p.peak_level == 0 for p in report.platforms)
        assert all(p.mean_level == 0.0 for p in report.platforms)

    def test_rejections_carry_reasons(self, fleet, snappy_tenant):
        # A tiny queue plus a hot storm forces saturation rejects.
        loads = [TenantLoad(snappy_tenant, _storm(fleet, overload=4.0))]
        report = RequestRouter(
            fleet,
            RouterConfig(queue_limit=2, degradation=False, policy="fifo"),
        ).run(loads)
        assert report.n_rejected > 0
        reasons = {r.reason for r in report.rejected}
        assert reasons <= {"saturated", "infeasible"}
        reject_events = of_kind(report.events, "reject")
        assert len(reject_events) == report.n_rejected
        assert all(e.detail["reason"] in reasons for e in reject_events)


class TestAccounting:
    def test_every_offered_request_is_accounted_once(
        self, fleet, snappy_load
    ):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        offered = snappy_load[0].trace.n_requests
        assert report.n_completed + report.n_rejected == offered
        rids = sorted(
            [r.request.rid for r in report.completed]
            + [r.request.rid for r in report.rejected]
        )
        assert rids == list(range(offered))

    def test_dispatch_and_complete_events_cover_completions(
        self, fleet, snappy_load
    ):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        dispatched = sum(
            len(e.request_ids) for e in of_kind(report.events, "dispatch")
        )
        assert dispatched == report.n_completed
        assert len(of_kind(report.events, "dispatch")) == len(
            of_kind(report.events, "complete")
        )

    def test_platform_stats_consistent(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert {p.platform for p in report.platforms} == {"K20c", "TX1"}
        assert sum(p.requests for p in report.platforms) == report.n_completed
        for stats in report.platforms:
            assert 0.0 <= stats.utilization <= 1.0 + 1e-9
            assert stats.busy_s <= report.horizon_s + 1e-9
        assert report.total_energy_j == pytest.approx(
            sum(p.energy_j for p in report.platforms)
        )

    def test_latencies_and_horizon(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        for record in report.completed:
            assert record.finish_s > record.start_s >= record.request.arrival_s
            assert record.finish_s <= report.horizon_s + 1e-9
        assert report.percentile_latency_s(50.0) <= report.percentile_latency_s(
            99.0
        )

    def test_engine_compile_activity_lands_in_event_log(self, fleet, spec):
        # A fresh engine compiles ladder rungs during run(); the
        # engine relay must surface that as compile or cache_hit events.
        from repro.core.fleet import FleetManager
        from repro.gpu import K20C
        from repro.nn import alexnet

        fresh = FleetManager(
            alexnet(), spec, architectures=[K20C], max_tuning_iterations=4
        )
        tenant = Tenant("t", TimeRequirement(0.1, 0.5), 1)
        trace = RequestTrace(
            arrivals_s=np.array([0.0]), difficulty=np.array([1.0])
        )
        report = RequestRouter(fresh, RouterConfig()).run(
            [TenantLoad(tenant, trace)]
        )
        assert len(of_kind(report.events, "compile")) > 0
        # The relay unsubscribes after the run: engine activity outside
        # run() must not grow this report's log.
        before = len(report.events)
        deployment = fresh.deployment("K20c")
        deployment.engine.execute(deployment.current_entry.compiled)
        assert len(report.events) == before


class TestMultiTenant:
    def test_priority_tenant_gets_better_service(self, fleet):
        requirement = TimeRequirement(0.1, 0.5)
        vip = Tenant("vip", requirement, priority=2)
        best_effort = Tenant("best-effort", requirement, priority=0)
        loads = [
            TenantLoad(vip, _storm(fleet, n=400, seed=1)),
            TenantLoad(best_effort, _storm(fleet, n=400, seed=2)),
        ]
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        per_tenant = {s.tenant: s for s in report.per_tenant()}
        assert set(per_tenant) == {"vip", "best-effort"}
        vip_stats = per_tenant["vip"]
        be_stats = per_tenant["best-effort"]
        assert vip_stats.deadline_hit_rate >= be_stats.deadline_hit_rate
        assert report.tenant("vip").priority == 2
        with pytest.raises(KeyError, match="vip"):
            report.tenant("nobody")

    def test_background_tenant_never_rejected_infeasible(
        self, fleet, background_tenant
    ):
        loads = [TenantLoad(background_tenant, _storm(fleet, n=200))]
        report = RequestRouter(fleet, RouterConfig()).run(loads)
        assert all(r.reason != "infeasible" for r in report.rejected)
        # Deadline-free completions always count as hits.
        assert all(
            math.isinf(r.request.deadline_s) for r in report.completed
        )
        assert report.deadline_hits == report.n_completed


class TestReportExport:
    def test_to_dict_schema(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        data = report.to_dict(include_events=True, include_requests=True)
        assert set(data) == {
            "summary", "tenants", "platforms", "event_counts", "events",
            "completed", "rejected",
        }
        summary = data["summary"]
        for key in (
            "offered", "completed", "rejected", "deadline_hits",
            "deadline_hit_rate", "rejection_rate", "mean_soc",
            "p50_latency_s", "p95_latency_s", "p99_latency_s",
            "total_energy_j", "horizon_s",
        ):
            assert key in summary
        json.loads(report.to_json(include_events=True, include_requests=True))

    def test_summary_percentiles_sort_the_latencies_once(
        self, fleet, snappy_load, monkeypatch
    ):
        """``to_dict`` reads p50, p95 and p99 off one sort of the
        completed latencies, and each equals ``percentile_latency_s``."""
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        sorts = []

        def counting(values, *args, **kwargs):
            sorts.append(len(values))
            return sorted(values, *args, **kwargs)

        monkeypatch.setattr(metrics, "sorted", counting, raising=False)
        summary = report.to_dict(include_events=False)["summary"]
        assert sorts == [report.n_completed]
        monkeypatch.undo()
        for q in (50, 95, 99):
            assert summary["p%d_latency_s" % q] == report.percentile_latency_s(
                float(q)
            )

    def test_platform_lookup_errors_name_known(self, fleet, snappy_load):
        report = RequestRouter(fleet, RouterConfig()).run(snappy_load)
        assert report.platform("K20c").gpu == "K20c"
        with pytest.raises(KeyError, match="K20c, TX1"):
            report.platform("H100")


class TestEdgeCasesAndValidation:
    def test_empty_loads_give_empty_report(self, fleet):
        report = RequestRouter(fleet, RouterConfig()).run([])
        assert report.n_offered == 0
        assert report.horizon_s == 0.0
        assert report.deadline_hit_rate == 0.0
        assert report.mean_soc == 0.0

    def test_router_requires_deployments(self):
        with pytest.raises(ValueError):
            RequestRouter({})

    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            RouterConfig(policy="lifo")
        with pytest.raises(ValueError):
            RouterConfig(queue_limit=0)
        with pytest.raises(ValueError):
            RouterConfig(max_levels=0)
        with pytest.raises(ValueError):
            RouterConfig(low_water_batches=5.0)
        # NaN slips past one-sided bound checks: every float field
        # must reject a non-finite value by name.
        for name in (
            "flush_timeout_s",
            "min_gain",
            "high_water_batches",
            "low_water_batches",
            "retry_backoff_s",
            "retry_backoff_growth",
            "breaker_cooldown_s",
        ):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    RouterConfig(**{name: value})

    def test_accepts_plain_deployment_mapping(self, deployments):
        router = RequestRouter(dict(deployments))
        tenant = Tenant("t", TimeRequirement(0.1, 3.0), 1)
        trace = RequestTrace(
            arrivals_s=np.array([0.0, 0.0]), difficulty=np.ones(2)
        )
        report = router.run([TenantLoad(tenant, trace)])
        assert report.n_completed == 2


class TestLadderMemo:
    """Eager ladders are memoized on the deployments and shared by
    every later run on the fleet; whatever ran first, the next run
    must fingerprint exactly like the same run on a fresh fleet."""

    RUNS = {
        "plain": lambda router, loads, faults: router.run(loads),
        "chaos": lambda router, loads, faults: router.run(
            loads, faults=faults
        ),
        "controller": lambda router, loads, faults: router.run(
            loads,
            controller=ControllerConfig(kind="ewma", tick_s=0.02).build(),
        ),
    }

    @staticmethod
    def _fresh_fleet(spec):
        manager = FleetManager(
            alexnet(), spec, architectures=[K20C, JETSON_TX1],
            max_tuning_iterations=8,
        )
        manager.deploy_all()
        return manager

    @pytest.mark.parametrize(
        "first, second",
        [("chaos", "plain"), ("plain", "chaos"), ("plain", "controller")],
    )
    def test_second_run_matches_fresh_fleet(
        self, spec, snappy_tenant, first, second
    ):
        shared = self._fresh_fleet(spec)
        loads = [TenantLoad(snappy_tenant, _storm(shared))]
        # SM failures re-target ladders and throttles rescale rungs:
        # neither may leak into the memoized healthy ladder.
        faults = generate_fault_trace(
            sorted(shared.deploy_all()),
            horizon_s=float(loads[0].trace.arrivals_s[-1]),
            config=FaultTraceConfig(
                outages=1, outage_duration_s=0.05, sm_failures=1,
                sm_failure_duration_s=0.1, throttles=1,
                throttle_duration_s=0.1, transients=2,
            ),
            seed=3,
        )
        self.RUNS[first](RequestRouter(shared), loads, faults)
        warm = self.RUNS[second](RequestRouter(shared), loads, faults)
        cold = self.RUNS[second](
            RequestRouter(self._fresh_fleet(spec)), loads, faults
        )
        assert warm.fingerprint() == cold.fingerprint()
        # Engine relays at the build-time clock show whether the
        # states were built (a warm engine still reports cache hits)
        # or served from the memo (nothing built, nothing relayed).
        built = [
            event for event in warm.events
            if event.kind in ("compile", "cache_hit") and event.time_s == 0.0
        ]
        if second == "controller":
            assert built, "a lazy ladder must never come from the memo"
        else:
            assert not built, "an eager ladder must come from the memo"

    def test_memo_revalidates_entry_and_knobs(self, spec):
        fleet = self._fresh_fleet(spec)
        router = RequestRouter(fleet)
        deployment = fleet.deploy_all()["K20c"]
        memoized = router._build_states()["K20c"].ladder
        assert router._build_states()["K20c"].ladder is memoized
        # Another execution knob: the memoized rungs' measured times
        # and energies no longer describe the deployment.
        deployment.power_gating = not deployment.power_gating
        regated = router._build_states()["K20c"].ladder
        assert regated is not memoized
        # Far past the threshold the calibrator backtracks to another
        # tuning entry, whose plan rung 0 must be rebuilt from.
        entry = deployment.current_entry
        deployment.observe_entropy(10.0 * deployment.entropy_threshold)
        assert deployment.current_entry is not entry
        recalibrated = router._build_states()["K20c"].ladder
        assert recalibrated is not regated
        assert recalibrated[0].plan is deployment.current_entry.compiled
