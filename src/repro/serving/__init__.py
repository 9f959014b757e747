"""Deadline-aware multi-tenant serving on top of the fleet.

The paper deploys *one* application on *one* platform and lets the
run-time manager trade accuracy for latency per request.  This package
scales that idea to an operator's view: live traffic from several
tenants is routed across every platform of a
:class:`~repro.core.fleet.FleetManager` by a deterministic
discrete-event router that

* admits or rejects requests against bounded per-platform queues and
  per-tenant deadlines (:mod:`repro.serving.admission`),
* scores candidate (platform, batch-plan, perforation-level)
  assignments by predicted SoC and routes each request to the best one
  (:mod:`repro.serving.dispatch`),
* degrades gracefully under overload by stepping each platform down a
  ladder of faster-but-coarser operating points -- larger batches plus
  heavier perforation -- and stepping back up as the backlog drains,
  mirroring the paper's calibration backtracking
  (:mod:`repro.serving.degradation`),
* and emits a structured event log plus a :class:`RouterReport`
  aggregating per-tenant SoC, deadline hit-rates, rejection rates and
  per-platform utilization/energy (:mod:`repro.serving.events`,
  :mod:`repro.serving.report`).

Under fault injection (:mod:`repro.faults`) the router additionally
self-heals: per-platform health tracking, deadline-aware retries with
budget-capped backoff, per-deployment circuit breakers and failover
re-dispatch off dead platforms (:mod:`repro.serving.resilience`),
with recovery metrics reported as :class:`ResilienceStats`.

Everything is simulated time: the router is bit-identical across runs
with the same seed and configuration.  :meth:`RequestRouter.run` picks
its loop from the run's inputs: a plain run (no faults, no enabled
instrumentation, no control plane) takes the columnar fast loop of
:mod:`repro.serving.vec_router`, every other run the discrete-event
loop, and plain-run fingerprints are bit-identical between the two
(``tests/serving/test_backend_equivalence.py``).

The shard layer (:mod:`repro.serving.shard`) scales one router into a
fleet of fleets: a :class:`FleetCoordinator` launches N router shards
in ``multiprocessing`` spawn workers, re-homes requests off
chaos-dead shards, and merges the per-shard reports into one
fingerprinted global ledger -- same-seed merged fingerprints are
bit-identical at any shard count.
"""

from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.degradation import (
    DegradationController,
    DegradationLadder,
    DegradationRung,
    escalate_perforation,
)
from repro.serving.dispatch import (
    Candidate,
    Dispatcher,
    InFlightBatch,
    PlatformState,
)
from repro.serving.events import EventLog, RouterEvent
from repro.serving.report import (
    CompletedRequest,
    PlatformStats,
    RejectedRequest,
    ResilienceStats,
    RouterReport,
    TenantStats,
)
from repro.serving.request import Request, Tenant, TenantLoad, merge_loads
from repro.serving.resilience import BREAKER_STATES, CircuitBreaker, RetryPolicy
from repro.serving.router import RequestRouter, RouterConfig
from repro.serving.shard import (
    FleetCoordinator,
    FleetRunOutcome,
    FleetSpec,
    ShardPlan,
    ShardPlanner,
    ShardResult,
    ShardSpec,
    run_shard,
    shard_seed,
    split_fault_trace,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BREAKER_STATES",
    "Candidate",
    "CircuitBreaker",
    "CompletedRequest",
    "DegradationController",
    "DegradationLadder",
    "DegradationRung",
    "Dispatcher",
    "EventLog",
    "FleetCoordinator",
    "FleetRunOutcome",
    "FleetSpec",
    "InFlightBatch",
    "PlatformState",
    "PlatformStats",
    "RejectedRequest",
    "Request",
    "RequestRouter",
    "ResilienceStats",
    "RetryPolicy",
    "RouterConfig",
    "RouterEvent",
    "RouterReport",
    "ShardPlan",
    "ShardPlanner",
    "ShardResult",
    "ShardSpec",
    "Tenant",
    "TenantLoad",
    "TenantStats",
    "escalate_perforation",
    "merge_loads",
    "run_shard",
    "shard_seed",
    "split_fault_trace",
]
