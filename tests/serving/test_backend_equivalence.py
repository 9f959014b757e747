"""Differential harness: the columnar fast loop vs the event loop.

``RequestRouter.run`` serves a plain run -- no faults, no control
plane, with or without instrumentation -- with the columnar loop of
:mod:`repro.serving.vec_router`, and every other run with the
discrete-event loop, ``RequestRouter._run_events``.  The columnar
loop's contract is *bit-identical* ``RouterReport`` fingerprints --
the SHA-1 over every routing decision, event and request record --
against the event loop on every plain run: hypothesis draws trace
families (MMPP storms, Pareto heavy tails, diurnal sinusoids), a
config matrix covers every knob the loop reads, and each case must
fingerprint identically through both loops, and each fingerprint must
match the dict-based oracle of :mod:`tests.serving.oracle`.  The
columnar loop's vectorized SoC accuracy curve is checked element-wise
against its scalar original here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControllerConfig
from repro.core.satisfaction import TimeRequirement, soc_accuracy
from repro.faults import FaultTrace
from repro.obs import Instrumentation
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.vec_router import VecRouterReport, soc_accuracy_vec
from repro.workloads import bursty_trace, diurnal_trace, pareto_trace
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

#: Merged fingerprint of the two-shard coordinator case below, as the
#: event loop produced it before plain shards moved to the columnar
#: loop.
COORDINATOR_MERGE_FINGERPRINT = "c651d0229cac85f487d3e5974289edb55c7e6946"


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
    """``(event loop report, run() report)`` for one plain run."""
    return router._run_events(loads), router.run(loads)


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


class TestLoopSelection:
    """``run()`` picks the loop from its inputs; there is no knob."""

    def _loads(self, snappy_tenant):
        return [TenantLoad(snappy_tenant, _trace("mmpp", 30, 5))]

    def test_plain_run_takes_columnar_loop(self, fleet, snappy_tenant):
        """Instrumentation does not pick the loop: the spans and
        metrics are derived from the finished report either way."""
        loads = self._loads(snappy_tenant)
        router = RequestRouter(fleet)
        assert isinstance(router.run(loads), VecRouterReport)
        traced = router.run(loads, obs=Instrumentation())
        assert isinstance(traced, VecRouterReport)
        assert traced.obs is not None
        assert traced.n_offered == loads[0].trace.n_requests

    def test_tracked_runs_take_event_loop(self, fleet, snappy_tenant):
        """Faults or a controller each send the run to the event loop,
        which reports on what it was given."""
        loads = self._loads(snappy_tenant)
        router = RequestRouter(fleet)
        chaos = router.run(
            loads, faults=FaultTrace([]), obs=Instrumentation()
        )
        controlled = router.run(
            loads, controller=ControllerConfig(kind="ewma").build()
        )
        assert chaos.resilience is not None
        assert chaos.obs is not None
        assert controlled.control is not None
        for report in (chaos, controlled):
            assert not isinstance(report, VecRouterReport)
            assert report.n_offered == loads[0].trace.n_requests


class TestCoordinatorMerge:
    def test_merge_fingerprint_pinned(self, spec, snappy_tenant):
        """Plain shards now run the columnar loop; the merged ledger
        must still be the one the event loop produced."""
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
