"""Control-plane integration tests: determinism, prewarm, DVFS, shards."""

import pickle

import pytest

from repro.control import ControllerConfig, ControlPlane
from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.obs import Instrumentation
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    TenantLoad,
)
from repro.workloads import bursty_trace

#: Storm rate past the module fleet's rung-0 capacity (~390 rps), so
#: the controller has a spike to provision for.
STORM_RATE_HZ = 700.0


def _storm(snappy_tenant, n_requests=800, seed=42):
    return [TenantLoad(snappy_tenant, bursty_trace(
        n_requests=n_requests, rate_hz=STORM_RATE_HZ,
        burst_factor=6.0, burst_fraction=0.3, seed=seed,
    ))]


class TestControllerConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ControllerConfig(kind="arima")

    def test_rejects_bad_cadence_and_horizon(self):
        with pytest.raises(ValueError):
            ControllerConfig(tick_s=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(horizon_ticks=0)
        with pytest.raises(ValueError):
            ControllerConfig(lookahead_levels=-1)
        with pytest.raises(ValueError):
            ControllerConfig(headroom=0.5)
        # NaN slips past one-sided bound checks (a NaN tick_s would
        # schedule no tick at all): every float field must reject a
        # non-finite value by name.
        for name in (
            "tick_s", "headroom", "dvfs_headroom", "alpha", "beta", "gamma",
        ):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    ControllerConfig(**{name: value})

    @pytest.mark.parametrize(
        "kind, field_values",
        [
            ("ewma", {"alpha": 5.0}),
            ("ewma", {"alpha": 0.0}),
            ("ewma", {"alpha": -0.5}),
            ("holt-winters", {"alpha": 5.0}),
            ("holt-winters", {"beta": 2.0}),
            ("holt-winters", {"beta": -0.1}),
            ("holt-winters", {"gamma": -1.0}),
            ("holt-winters", {"gamma": 1.5}),
            ("holt-winters", {"season_ticks": -3}),
            ("ewma", {"beta": 2.0}),
            ("ewma", {"gamma": -1.0}),
            ("ewma", {"season_ticks": -3}),
        ],
    )
    def test_rejects_out_of_range_forecaster_parameters(
        self, kind, field_values
    ):
        """Every kind checks every forecaster parameter at
        construction: a bad value must not wait for the first tick."""
        (name,) = field_values
        with pytest.raises(ValueError, match=name):
            ControllerConfig(kind=kind, **field_values)

    def test_picklable_for_shard_specs(self):
        config = ControllerConfig(kind="holt-winters", season_ticks=8)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert isinstance(clone.build(), ControlPlane)

    def test_build_returns_fresh_planes(self):
        config = ControllerConfig()
        assert config.build() is not config.build()


class TestPredictiveRun:
    def test_same_seed_runs_bit_identical(self, fleet, snappy_tenant):
        config = ControllerConfig(tick_s=0.05, headroom=1.5)
        reports = []
        traces = []
        for _ in range(2):
            obs = Instrumentation()
            report = RequestRouter(fleet, RouterConfig()).run(
                _storm(snappy_tenant), obs=obs,
                controller=config.build(),
            )
            reports.append(report)
            traces.append(obs.buffer.fingerprint())
        assert reports[0].fingerprint() == reports[1].fingerprint()
        assert traces[0] == traces[1]

    def test_control_section_in_report(self, fleet, snappy_tenant):
        config = ControllerConfig(kind="holt-winters", tick_s=0.1)
        report = RequestRouter(fleet, RouterConfig()).run(
            _storm(snappy_tenant), controller=config.build(),
        )
        control = report.control
        assert control["kind"] == "holt-winters"
        assert control["ticks"] > 0
        assert control["tenants"]["snappy"]["observations"] == control["ticks"]
        assert set(control["prewarm"]) == {"requested", "hits", "misses"}
        # The section survives to_dict and is JSON-plain.
        assert report.to_dict(include_events=False)["control"] == control

    def test_reactive_report_has_no_control_section(self, fleet, snappy_tenant):
        report = RequestRouter(fleet, RouterConfig()).run(
            _storm(snappy_tenant)
        )
        assert report.control is None
        assert "control" not in report.to_dict(include_events=False)

    def test_control_events_recorded(self, fleet, snappy_tenant):
        config = ControllerConfig(tick_s=0.05, headroom=2.0)
        report = RequestRouter(fleet, RouterConfig()).run(
            _storm(snappy_tenant), controller=config.build(),
        )
        kinds = {event.kind for event in report.events}
        assert "control_tick" in kinds
        ticks = [e for e in report.events if e.kind == "control_tick"]
        assert len(ticks) == report.control["ticks"]
        for event in ticks:
            assert set(event.detail) >= {
                "observed_rps", "forecast_rps", "level"
            }

    def test_prewarm_hits_do_not_change_fingerprint(self, fleet, snappy_tenant):
        # Same seed, same loads: one run against whatever cache state
        # the module fleet accumulated, one more right after (fully
        # warm).  The prewarm hit/miss split differs; the fingerprint
        # must not.
        config = ControllerConfig(tick_s=0.05, headroom=2.0)
        first = RequestRouter(fleet, RouterConfig()).run(
            _storm(snappy_tenant), controller=config.build(),
        )
        second = RequestRouter(fleet, RouterConfig()).run(
            _storm(snappy_tenant), controller=config.build(),
        )
        assert first.fingerprint() == second.fingerprint()


class TestPrewarmCausalChain:
    def test_predicted_rung_is_cache_hit_at_dispatch(self):
        # A cold fleet: deploy compiles only rung 0 of each ladder
        # (the controller's presence makes ladders lazy).  The plane
        # pre-warms the rungs it predicts needing, so when escalation
        # reaches them the ladder's materialization is answered from
        # the plan cache by an entry the prewarm planted.
        spec = ApplicationSpec(
            "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
        )
        manager = FleetManager(
            alexnet(), spec,
            architectures=[K20C, JETSON_TX1],
            max_tuning_iterations=8,
        )
        engines = {
            id(deployment.engine): deployment.engine
            for deployment in manager.deploy_all().values()
        }.values()
        before = [
            (engine.stats.prewarm_misses, engine.stats.prewarmed_hits)
            for engine in engines
        ]
        from repro.core.satisfaction import TimeRequirement
        from repro.serving import Tenant

        tenant = Tenant(
            "snappy", TimeRequirement(0.1, 0.5), priority=1
        )
        config = ControllerConfig(tick_s=0.05, headroom=2.0)
        report = RequestRouter(manager, RouterConfig()).run(
            _storm(tenant), controller=config.build(),
        )
        assert report.control["prewarm"]["requested"] > 0
        after = [
            (engine.stats.prewarm_misses, engine.stats.prewarmed_hits)
            for engine in engines
        ]
        # On a cold cache every prewarm compiles...
        assert any(a[0] > b[0] for a, b in zip(after, before))
        # ...and dispatch later hits those planted entries.
        assert any(a[1] > b[1] for a, b in zip(after, before))


class TestShardedController:
    def test_inline_shards_carry_merged_control_section(
        self, spec, snappy_tenant
    ):
        controller = ControllerConfig(tick_s=0.05)
        coordinator = FleetCoordinator(
            FleetSpec(
                network="alexnet", spec=spec, gpus=("k20c", "tx1"),
                max_tuning_iterations=8,
            ),
            RouterConfig(),
            n_shards=2,
            seed=42,
            inline=True,
            controller=controller,
        )
        shard_loads = [
            _storm(snappy_tenant, n_requests=300, seed=42 + shard)
            for shard in range(2)
        ]
        outcome = coordinator.run(shard_loads=shard_loads)
        control = outcome.report.control
        assert control is not None
        assert control["kind"] == "ewma"
        # Ticks sum across shards; every shard saw the same cadence.
        assert control["ticks"] > 0
        assert control["tick_s"] == 0.05
