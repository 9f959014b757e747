"""Shared fixtures for the serving (router) test suite.

Fleet deployment dominates the suite's wall-clock, so one two-platform
fleet is deployed per module and shared; tests that mutate router
state build their own routers (cheap) on top of it.
"""

import numpy as np
import pytest

from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.serving import (
    DegradationLadder,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.workloads import RequestTrace


@pytest.fixture(scope="module")
def spec():
    return ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
    )


@pytest.fixture(scope="module")
def fleet(spec):
    manager = FleetManager(
        alexnet(),
        spec,
        architectures=[K20C, JETSON_TX1],
        max_tuning_iterations=8,
    )
    manager.deploy_all()
    return manager


@pytest.fixture(scope="module")
def deployments(fleet):
    return fleet.deploy_all()


@pytest.fixture
def snappy_tenant():
    """An interactive tenant with a deadline tight enough to miss."""
    return Tenant(
        "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
        priority=1,
    )


@pytest.fixture
def background_tenant(spec):
    """A deadline-free tenant (background task class)."""
    background = ApplicationSpec("tagging", TaskClass.BACKGROUND)
    return Tenant.from_spec(background, priority=0)


@pytest.fixture(scope="module")
def finish_collision(deployments):
    """A second batch filling at the exact instant the first finishes.

    One K20c pinned at rung 0 gets a full batch at t=0 and another
    full batch at t = the rung's execution time.  Arrivals carry the
    lowest push sequence numbers, so the second burst pops *ahead of*
    the first batch's free event at the same float instant.  Returns
    ``(router, loads)``.
    """
    deployment = deployments["K20c"]
    rung = DegradationLadder(deployment, max_levels=1)[0]
    arrivals = [0.0] * rung.batch + [rung.exec_time_s] * rung.batch
    trace = RequestTrace(
        arrivals_s=np.asarray(arrivals, dtype=np.float64),
        difficulty=np.ones(len(arrivals), dtype=np.float64),
    )
    tenant = Tenant(
        "collide", TimeRequirement(imperceptible_s=1.0, unusable_s=5.0),
        priority=1,
    )
    router = RequestRouter(
        {"K20c": deployment}, RouterConfig(degradation=False)
    )
    return router, [TenantLoad(tenant, trace)]
