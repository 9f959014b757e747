"""Differential harness: the serving loop vs the event-loop oracle.

``RequestRouter.run`` serves every run -- plain, fault-injected,
predictively controlled, observed or not -- with the columnar loop of
:mod:`repro.serving.vec_router`.  The discrete-event loop it replaced
lives on as an independent second implementation in
:mod:`tests.serving.event_loop`, and the contract is that the two agree
*bit for bit*: the ``RouterReport`` fingerprint (the SHA-1 over every
routing decision, event and request record), the whole event log with
the engine's ``compile``/``cache_hit`` relays at the same times and
positions, every observability export, and the engine's compile count.

Plain runs are compared report to report.  Every other case runs one
scenario twice on fresh fleets (so both see the same cache
temperature): once with the oracle swapped in under
``RequestRouter.run``, once as is.  Hypothesis draws fault traces
(counts, durations, seed), resilience and retry/breaker knobs,
controller kinds with pre-warm and DVFS on and off, both together, and
a two-shard coordinator with a controller and router chaos.  A few
fixed cases pin the rules where a plain-run shortcut would stop being
true: stale free events after an outage evacuation, and saturation
bursts that must stop at a breaker's lapse instant.  The columnar
loop's vectorized SoC accuracy curve is checked element-wise against
its scalar original here too.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.router as router_module
from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement, soc_accuracy
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.faults.events import FaultEvent, FaultTrace
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.obs import (
    Instrumentation,
    chrome_trace_json,
    metrics_to_json,
    prometheus_text,
    trace_to_json,
)
from repro.serving import (
    DegradationLadder,
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.vec_router import soc_accuracy_vec
from repro.workloads import (
    RequestTrace,
    bursty_trace,
    diurnal_trace,
    pareto_trace,
)
from tests.serving.event_log import of_kind
from tests.serving.event_loop import run_events
from tests.serving.oracle import checked_fingerprint

#: Arrival rate used by the fixed-rate differential traces; high
#: enough to overload the two-platform AlexNet fleet and exercise the
#: degradation ladder and saturation rejection.
RATE_HZ = 400.0

#: Immutable tenant for the hypothesis-driven tests (a module-level
#: constant rather than the function-scoped fixture, which hypothesis
#: would not reset between generated examples).
SNAPPY = Tenant(
    "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
    priority=1,
)
#: A deadline tight enough that overload forces admission rescues.
TIGHT = Tenant(
    "tight", TimeRequirement(imperceptible_s=0.1, unusable_s=0.25),
    priority=1,
)
BACKGROUND = Tenant.from_spec(
    ApplicationSpec("tagging", TaskClass.BACKGROUND), priority=0
)
SPEC = ApplicationSpec(
    "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
    entropy_slack=0.30,
)

#: Merged fingerprint of the two-shard coordinator case below, as the
#: event loop produced it before plain shards moved to the columnar
#: loop.
COORDINATOR_MERGE_FINGERPRINT = "c651d0229cac85f487d3e5974289edb55c7e6946"

#: Hypothesis budget of each differential sweep (every example builds
#: two fresh fleets and serves a few hundred requests twice).
SWEEP = settings(max_examples=5, deadline=None)


def _trace(family, n, seed):
    if family == "mmpp":
        return bursty_trace(
            n_requests=n, rate_hz=RATE_HZ, burst_factor=6.0,
            burst_fraction=0.3, seed=seed,
        )
    if family == "pareto":
        return pareto_trace(
            n_requests=n, rate_hz=RATE_HZ, alpha=1.5, seed=seed
        )
    return diurnal_trace(
        n_requests=n, base_rate_hz=RATE_HZ / 2.0, amplitude=0.6,
        period_s=1.0, seed=seed,
    )


def _run_both(router, loads):
    """``(oracle report, run() report)`` for one plain run."""
    return run_events(router, loads), router.run(loads)


def _filtered_events(report):
    """The event log minus cache-temperature noise: raw sequence
    numbers and engine compile/cache-hit relays (the same filter
    ``fingerprint()`` applies)."""
    data = report.to_dict(include_events=True)
    return [
        {key: value for key, value in event.items() if key != "seq"}
        for event in data["events"]
        if event["kind"] not in ("compile", "cache_hit")
    ]


# -- the scenario harness --------------------------------------------------
def _fleet():
    manager = FleetManager(
        alexnet(), SPEC, architectures=[K20C, JETSON_TX1]
    )
    manager.deploy_all()
    return manager


def _engines(fleet):
    engines = {}
    for deployment in fleet.deploy_all().values():
        engines.setdefault(id(deployment.engine), deployment.engine)
    return list(engines.values())


def _storm(n, seed, rate_hz, tenant=SNAPPY, two_tenants=False):
    loads = [TenantLoad(tenant, bursty_trace(
        n_requests=n, rate_hz=rate_hz, burst_factor=6.0,
        burst_fraction=0.3, seed=seed,
    ))]
    if two_tenants:
        loads.append(TenantLoad(BACKGROUND, pareto_trace(
            n_requests=n // 3, rate_hz=rate_hz / 4.0, seed=seed + 1,
        )))
    return loads


def _routed(loads, config=RouterConfig(), faults=None, controller=None,
            observe=False):
    """A scenario: serve ``loads`` on a fresh fleet through
    ``RequestRouter.run``; returns ``(report, obs, compile calls)``."""

    def scenario():
        fleet = _fleet()
        obs = Instrumentation() if observe else None
        report = RequestRouter(fleet, config).run(
            loads,
            faults=faults,
            obs=obs,
            controller=(
                controller.build() if controller is not None else None
            ),
        )
        compiles = sum(e.stats.compile_calls for e in _engines(fleet))
        return report, obs, compiles

    return scenario


def _assert_matches_oracle(scenario):
    """Run ``scenario`` through the oracle and through ``run()``, and
    hold them to the same bytes everywhere."""
    with mock.patch.object(router_module, "run_columnar", run_events):
        expected, expected_obs, expected_compiles = scenario()
    actual, actual_obs, actual_compiles = scenario()
    assert checked_fingerprint(actual) == checked_fingerprint(expected)
    assert actual.to_dict(
        include_events=True, include_requests=True
    ) == expected.to_dict(include_events=True, include_requests=True)
    if expected_obs is not None:
        for export in (trace_to_json, chrome_trace_json):
            assert export(actual_obs.buffer) == export(expected_obs.buffer)
        for export in (metrics_to_json, prometheus_text):
            assert export(actual_obs.metrics) == export(expected_obs.metrics)
    assert actual_compiles == expected_compiles
    return actual


def _chaos(loads, platforms, draw, seed):
    """One fault trace over ``loads``' horizon from drawn counts and
    duration fractions."""
    horizon = max(float(load.trace.arrivals_s[-1]) for load in loads)
    config = FaultTraceConfig(
        outages=draw["outages"],
        outage_duration_s=draw["outage_fraction"] * horizon,
        sm_failures=draw["sm_failures"],
        sm_failure_duration_s=draw["fraction"] * horizon,
        throttles=draw["throttles"],
        throttle_duration_s=draw["fraction"] * horizon,
        bandwidth_degradations=draw["bandwidth"],
        bandwidth_duration_s=draw["fraction"] * horizon,
        transients=draw["transients"],
    )
    return generate_fault_trace(platforms, horizon, config, seed=seed)


FAULT_COUNTS = st.fixed_dictionaries({
    "outages": st.integers(0, 2),
    "outage_fraction": st.floats(0.01, 0.4),
    "sm_failures": st.integers(0, 1),
    "throttles": st.integers(0, 2),
    "bandwidth": st.integers(0, 1),
    "fraction": st.floats(0.05, 0.5),
    "transients": st.integers(0, 10),
})

CONTROLLERS = st.builds(
    ControllerConfig,
    kind=st.sampled_from(["ewma", "holt-winters"]),
    tick_s=st.sampled_from([0.05, 0.1, 0.25]),
    season_ticks=st.sampled_from([0, 4]),
    prewarm=st.booleans(),
    dvfs=st.booleans(),
)


# -- plain runs ------------------------------------------------------------
class TestTraceFamilies:
    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(["mmpp", "pareto", "diurnal"]),
        n=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fingerprints_bit_identical(self, fleet, family, n, seed):
        loads = [TenantLoad(SNAPPY, _trace(family, n, seed))]
        events, columnar = _run_both(RequestRouter(fleet), loads)
        assert checked_fingerprint(columnar) == checked_fingerprint(events)


class TestConfigMatrix:
    @pytest.mark.parametrize(
        "config",
        [
            RouterConfig(),
            RouterConfig(policy="fifo"),
            RouterConfig(degradation=False),
            RouterConfig(degradation=False, policy="fifo"),
            RouterConfig(degrade_on_admission=False),
            RouterConfig(resilience=False),
            RouterConfig(retry_limit=0),
            RouterConfig(queue_limit=8),
            RouterConfig(flush_timeout_s=0.001),
            RouterConfig(max_levels=2, batch_growth=3),
        ],
        ids=lambda c: "deg%d-%s-res%d-q%d" % (
            c.degradation, c.policy, c.resilience, c.queue_limit
        ),
    )
    def test_config_knobs_bit_identical(
        self, fleet, snappy_tenant, config
    ):
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 150, 42))]
        events, columnar = _run_both(RequestRouter(fleet, config), loads)
        assert checked_fingerprint(columnar) == checked_fingerprint(events)
        assert _filtered_events(columnar) == _filtered_events(events)

    def test_multi_tenant_priority_mix(
        self, fleet, snappy_tenant, background_tenant
    ):
        """Two tenants with distinct priorities: the dispatch queue's
        sort key is no longer the identity permutation, so this
        exercises the columnar loop's keyed-sort path."""
        loads = [
            TenantLoad(snappy_tenant, _trace("mmpp", 120, 1)),
            TenantLoad(background_tenant, _trace("pareto", 80, 2)),
        ]
        events, columnar = _run_both(RequestRouter(fleet), loads)
        assert checked_fingerprint(columnar) == checked_fingerprint(events)
        assert _filtered_events(columnar) == _filtered_events(events)

    def test_finish_instant_collision(self, finish_collision):
        """A batch filling at the exact instant the previous one
        finishes: both loops wait for the free event, complete every
        request, and agree bit for bit."""
        router, loads = finish_collision
        events, columnar = _run_both(router, loads)
        assert checked_fingerprint(columnar) == checked_fingerprint(events)
        assert _filtered_events(columnar) == _filtered_events(events)
        offered = loads[0].trace.n_requests
        assert columnar.n_completed == events.n_completed == offered


class TestOneLoop:
    """``run()`` has one loop: no input picks another."""

    def test_every_run_kind_takes_the_columnar_loop(
        self, fleet, snappy_tenant
    ):
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 30, 5))]
        router = RequestRouter(fleet)
        plain = router.run(loads)
        traced = router.run(loads, obs=Instrumentation())
        chaos = router.run(
            loads, faults=FaultTrace([]), obs=Instrumentation()
        )
        controlled = router.run(
            loads, controller=ControllerConfig(kind="ewma").build()
        )
        for report in (plain, traced, chaos, controlled):
            assert type(report) is RouterReport
            assert report.n_offered == loads[0].trace.n_requests
        assert plain.resilience is None and plain.control is None
        assert traced.obs is not None and chaos.obs is not None
        # An empty trace still makes a chaos run: it reports on it.
        assert chaos.resilience is not None
        assert controlled.control is not None

    def test_router_keeps_no_event_loop(self):
        assert not hasattr(RequestRouter, "_run_events")


class TestCoordinatorMerge:
    def test_merge_fingerprint_pinned(self, spec, snappy_tenant):
        """Plain shards run the columnar loop; the merged ledger must
        still be the one the event loop produced."""
        fleet_spec = FleetSpec(
            network="alexnet", spec=spec, gpus=("k20c", "tx1")
        )
        shard_loads = [
            [TenantLoad(snappy_tenant, _trace("mmpp", 60, seed))]
            for seed in (11, 12)
        ]
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, seed=42, inline=True,
        ).run(shard_loads=shard_loads)
        assert (
            outcome.report.fingerprint() == COORDINATOR_MERGE_FINGERPRINT
        )


class TestReportPayloads:
    def test_full_payloads_identical(self, fleet, snappy_tenant):
        """Beyond the fingerprint: completed/rejected ledgers, platform
        rows and summary scalars are exactly equal (floats included --
        the columnar loop must be bit-exact, not close)."""
        loads = [TenantLoad(snappy_tenant, _trace("mmpp", 200, 9))]
        events, columnar = _run_both(RequestRouter(fleet), loads)
        events_dict = events.to_dict(
            include_requests=True, include_events=False
        )
        columnar_dict = columnar.to_dict(
            include_requests=True, include_events=False
        )
        for payload in (events_dict, columnar_dict):
            # Engine compile/cache-hit relay counts track cache
            # temperature, not routing behaviour.
            for kind in ("compile", "cache_hit"):
                payload["event_counts"].pop(kind, None)
        assert columnar_dict == events_dict
        assert _filtered_events(columnar) == _filtered_events(events)
        assert columnar.mean_soc == events.mean_soc
        assert np.array_equal(
            np.asarray([r.soc for r in columnar.completed]),
            np.asarray([r.soc for r in events.completed]),
        )


# -- every other run kind --------------------------------------------------
class TestChaosRuns:
    @SWEEP
    @given(
        counts=FAULT_COUNTS,
        fault_seed=st.integers(0, 2**16),
        trace_seed=st.integers(0, 2**16),
        load=st.sampled_from([2.0, 6.0]),
        resilience=st.booleans(),
        retry_limit=st.sampled_from([0, 2]),
        breaker_threshold=st.sampled_from([1, 3]),
        observe=st.booleans(),
    )
    def test_fault_traces(
        self, counts, fault_seed, trace_seed, load, resilience,
        retry_limit, breaker_threshold, observe,
    ):
        loads = _storm(250, trace_seed, load * 200.0, tenant=TIGHT,
                       two_tenants=True)
        faults = _chaos(loads, ["K20c", "TX1"], counts, fault_seed)
        config = RouterConfig(
            resilience=resilience,
            retry_limit=retry_limit,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=0.05,
        )
        _assert_matches_oracle(
            _routed(loads, config, faults=faults, observe=observe)
        )

    def test_empty_fault_trace(self):
        loads = _storm(200, 3, 800.0)
        report = _assert_matches_oracle(
            _routed(loads, faults=FaultTrace([]), observe=True)
        )
        assert report.resilience.faults_injected == 0


def _one_platform(arrivals, faults, config):
    """A scenario on a fresh fleet's K20c alone, serving a patient
    tenant at the given arrival instants."""
    trace = RequestTrace(
        arrivals_s=np.asarray(arrivals, dtype=np.float64),
        difficulty=np.ones(len(arrivals), dtype=np.float64),
    )
    loads = [TenantLoad(Tenant(
        "patient", TimeRequirement(imperceptible_s=1.0, unusable_s=5.0),
    ), trace)]

    def scenario():
        fleet = {"K20c": _fleet().deploy_all()["K20c"]}
        report = RequestRouter(fleet, config).run(loads, faults=faults)
        return report, None, 0

    return scenario


def _k20c_rung():
    return DegradationLadder(_fleet().deploy_all()["K20c"], max_levels=1)[0]


class TestFixedRules:
    def test_stale_free_completes_nothing(self):
        """An outage shorter than the batch it evacuates: the platform
        is back and busy with a new batch when the evacuated batch's
        free event pops, which must not complete the new batch -- the
        burst that follows has to wait for the real finish."""
        rung = _k20c_rung()
        exec_s, full = rung.exec_time_s, rung.batch
        start = 0.001
        arrivals = (
            [start] * full
            + [start + 0.75 * exec_s] * full
            + [start + 1.25 * exec_s] * full
        )
        faults = FaultTrace([
            FaultEvent(start + 0.25 * exec_s, "outage", "K20c", episode=1),
            FaultEvent(start + 0.5 * exec_s, "restore", "K20c", episode=1),
        ])
        report = _assert_matches_oracle(_one_platform(
            arrivals, faults, RouterConfig(degradation=False)
        ))
        assert [r.reason for r in report.rejected] == ["outage"] * full
        assert report.n_completed == 2 * full
        launches = [e.time_s for e in of_kind(report.events, "dispatch")]
        assert launches[2] == launches[1] + exec_s

    def test_burst_stops_at_breaker_lapse(self):
        """The breaker trips open on a transient's failed batch: an
        arrival mid-cooldown is saturated, but arrivals at the exact
        lapse instant see the breaker half-open and are admitted
        before the probe event pops."""
        rung = _k20c_rung()
        cooldown = 0.05
        start = 0.001
        failed_at = start + rung.exec_time_s
        lapse = failed_at + cooldown
        arrivals = (
            [start] * rung.batch
            + [failed_at + 0.5 * cooldown]
            + [lapse] * 3
        )
        faults = FaultTrace([FaultEvent(0.0, "transient", "K20c")])
        # A flush timer armed while the first batch assembled must not
        # be the next heap event: the probe at the lapse instant is.
        config = RouterConfig(
            degradation=False, retry_limit=0, breaker_threshold=1,
            breaker_cooldown_s=cooldown, flush_timeout_s=1.0,
        )
        report = _assert_matches_oracle(
            _one_platform(arrivals, faults, config)
        )
        reasons = [r.reason for r in report.rejected]
        assert reasons.count("saturated") == 1
        assert report.n_completed == 3


class TestControllerRuns:
    @SWEEP
    @given(
        controller=CONTROLLERS,
        trace_seed=st.integers(0, 2**16),
        load=st.sampled_from([1.0, 3.0]),
        observe=st.booleans(),
    )
    def test_controllers(self, controller, trace_seed, load, observe):
        loads = _storm(300, trace_seed, load * 200.0, two_tenants=True)
        _assert_matches_oracle(
            _routed(loads, controller=controller, observe=observe)
        )

    @SWEEP
    @given(
        controller=CONTROLLERS,
        counts=FAULT_COUNTS,
        fault_seed=st.integers(0, 2**16),
        trace_seed=st.integers(0, 2**16),
        resilience=st.booleans(),
    )
    def test_controller_under_chaos(
        self, controller, counts, fault_seed, trace_seed, resilience
    ):
        loads = _storm(250, trace_seed, 600.0, tenant=TIGHT)
        faults = _chaos(loads, ["K20c", "TX1"], counts, fault_seed)
        _assert_matches_oracle(_routed(
            loads, RouterConfig(resilience=resilience), faults=faults,
            controller=controller, observe=True,
        ))


class TestShardedRuns:
    @settings(max_examples=2, deadline=None)
    @given(
        controller=CONTROLLERS,
        counts=FAULT_COUNTS,
        fault_seed=st.integers(0, 2**16),
    )
    def test_two_shards_controller_and_chaos(
        self, controller, counts, fault_seed
    ):
        shard_loads = [_storm(150, seed, 500.0) for seed in (21, 22)]
        for shard, loads in enumerate(shard_loads):
            loads[0] = TenantLoad(
                Tenant("snappy-%d" % shard, SNAPPY.requirement, priority=1),
                loads[0].trace,
            )
        shard_faults = [
            _chaos(
                [load for loads in shard_loads for load in loads],
                ("K20c", "TX1"), counts, fault_seed + shard,
            )
            for shard in (0, 1)
        ]

        def scenario():
            outcome = FleetCoordinator(
                FleetSpec(network="alexnet", spec=SPEC,
                          gpus=("k20c", "tx1")),
                RouterConfig(), n_shards=2, seed=42, inline=True,
                controller=controller,
            ).run(shard_loads, shard_faults=shard_faults, instrument=True)
            return outcome.report, outcome, 0

        with mock.patch.object(router_module, "run_columnar", run_events):
            expected, expected_outcome, _ = scenario()
        actual, actual_outcome, _ = scenario()
        assert checked_fingerprint(actual) == checked_fingerprint(expected)
        assert actual.to_dict(include_requests=True) == expected.to_dict(
            include_requests=True
        )
        for export in (trace_to_json, chrome_trace_json):
            assert export(actual_outcome.buffer) == export(
                expected_outcome.buffer
            )


# -- the accuracy curve ----------------------------------------------------
class TestSocCurves:
    @settings(max_examples=100, deadline=None)
    @given(
        entropies=st.lists(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            min_size=1, max_size=32,
        ),
        threshold=st.floats(
            min_value=1e-3, max_value=8.0, allow_nan=False
        ),
    )
    def test_soc_accuracy_elementwise(self, entropies, threshold):
        vec = soc_accuracy_vec(np.asarray(entropies), threshold)
        scalar = [soc_accuracy(e, threshold) for e in entropies]
        assert vec.tolist() == scalar

    def test_validation_matches_scalar_contract(self):
        with pytest.raises(ValueError):
            soc_accuracy_vec(np.asarray([-0.1]), 1.0)
        with pytest.raises(ValueError):
            soc_accuracy_vec(np.asarray([1.0]), 0.0)
