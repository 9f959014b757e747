"""What the fleet engines relay into a routing run's ledger.

A run registers one relay on each distinct engine of its fleet; the
engine hands it every compile (``network``, ``batch``,
``perforation``) and every plan or report cache hit (``cache``), and
the loop writes each as a ``compile`` or ``cache_hit`` row stamped
with its clock.  The fingerprint strips these rows, so they are
pinned here directly: digests of ``(kind, platform, detail, time_s)``
for a ``serve-fleet --chaos`` run on a freshly built fleet and again
on the same, now warm, fleet, and for one inline two-shard ``ewma``
coordinator op, recorded from the hook-bus relay these rows first
came from.
"""

import dataclasses
import hashlib

import pytest

from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import shard_label, shard_seed
from repro.workloads import bursty_trace, pareto_trace

_INTERACTIVE = ApplicationSpec(
    "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
    entropy_slack=0.30,
)
_BACKGROUND = ApplicationSpec("background", TaskClass.BACKGROUND)


def _fleet_spec():
    return FleetSpec(
        network="alexnet", spec=_INTERACTIVE, gpus=("k20c", "tx1")
    )


def _loads(offered_hz, seed, suffix=""):
    """serve-fleet's interactive/background pair."""
    interactive = Tenant.from_spec(_INTERACTIVE, priority=1)
    background = Tenant.from_spec(_BACKGROUND, priority=0)
    if suffix:
        interactive = dataclasses.replace(
            interactive, name="interactive-" + suffix
        )
        background = dataclasses.replace(
            background, name="background-" + suffix
        )
    return [
        TenantLoad(interactive, bursty_trace(
            n_requests=300, rate_hz=0.8 * offered_hz, seed=seed,
        )),
        TenantLoad(background, pareto_trace(
            n_requests=75, rate_hz=0.2 * offered_hz, seed=seed + 1,
        )),
    ]


def _chaos(fleet, loads):
    """serve-fleet ``--chaos``: one episode of each structural fault
    over a quarter of the horizon, plus three transients."""
    horizon = max(float(load.trace.arrivals_s[-1]) for load in loads)
    quarter = 0.25 * horizon
    return generate_fault_trace(
        sorted(fleet.deploy_all()),
        horizon,
        FaultTraceConfig(
            outages=1,
            outage_duration_s=quarter,
            sm_failures=1,
            sm_failure_duration_s=quarter,
            throttles=1,
            throttle_duration_s=quarter,
            bandwidth_degradations=1,
            bandwidth_duration_s=quarter,
            transients=3,
        ),
        seed=7,
    )


def _relayed(report):
    """``(row count, SHA-1)`` of the report's ``compile`` and
    ``cache_hit`` rows as ``(kind, platform, detail, time_s)``."""
    rows = [
        (kind, platform, tuple(zip(keys, values)), time_s)
        for kind, keys, values, time_s, _tenant, platform, _rids
        in report.ledger.event_rows()
        if kind in ("compile", "cache_hit")
    ]
    return len(rows), hashlib.sha1(repr(rows).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def chaos_runs():
    """A freshly built fleet, then the same chaos run on it while it
    is fresh and again once it is warm."""
    fleet = _fleet_spec().deployed()
    loads = _loads(2.0 * fleet.capacity_rps(), seed=42)
    faults = _chaos(fleet, loads)
    fresh, warm = (
        RequestRouter(fleet, RouterConfig()).run(loads, faults=faults)
        for _ in range(2)
    )
    return fleet, fresh, warm


class TestChaosRun:
    #: Rung compiles at t=0 and health-keyed recompiles.
    FRESH = (16, "cafa428269e4a3c34d23151260859650fa10acb9")
    #: Memoized ladders compile nothing at t=0; every recompile hits.
    WARM = (16, "e17d4a0fd57e7ceffbc2f6317ae9b6c0583563a4")

    def test_fresh_fleet(self, chaos_runs):
        assert _relayed(chaos_runs[1]) == self.FRESH

    def test_warm_fleet(self, chaos_runs):
        assert _relayed(chaos_runs[2]) == self.WARM

    def test_a_run_leaves_no_relay_registered(self, chaos_runs):
        fleet = chaos_runs[0]
        assert [
            deployment.engine.relays
            for deployment in fleet.deploy_all().values()
        ] == [[], []]


def test_inline_two_shard_ewma_op():
    """Each shard routes on a copy of one build; the merged ledger
    keeps both shards' relays, platforms qualified."""
    spec = _fleet_spec()
    offered = 2.0 * spec.deployed().capacity_rps()
    shard_loads = [
        _loads(offered, shard_seed(42, shard), suffix=shard_label(shard))
        for shard in range(2)
    ]
    outcome = FleetCoordinator(
        spec, RouterConfig(), n_shards=2, seed=42, inline=True,
        controller=ControllerConfig(kind="ewma"),
    ).run(shard_loads=shard_loads)
    assert _relayed(outcome.report) == (
        12, "7d7338f75785e8b4ff46f9f8a431fcf3be71b6f5"
    )
