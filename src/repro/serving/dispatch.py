"""Fleet dispatch: platform accounting and SoC-scored placement.

Each platform of the fleet is wrapped in a :class:`PlatformState`
carrying its deployment, degradation ladder/controller, bounded queue
and outstanding-work accounting.  The :class:`Dispatcher` scores a
request's candidate assignments -- one per platform, at that
platform's current ladder level, i.e. a concrete (platform,
batch-plan, perforation-level) triple -- by *predicted* SoC: the
analytical time/energy numbers of the rung's compiled plan plus a
deterministic queueing estimate, pushed through the paper's Eq. 15.
The highest predicted SoC wins (ties broken by latency, then platform
name); a ``fifo`` policy that ignores SoC and priorities is kept as
the baseline the overload benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.satisfaction import soc
from repro.gpu.dvfs import FrequencyState, scaled_runtime
from repro.serving.degradation import (
    DegradationController,
    DegradationLadder,
    DegradationRung,
)
from repro.serving.request import Request
from repro.serving.resilience import CircuitBreaker

if TYPE_CHECKING:  # duck-typed, avoids importing the framework here
    from repro.core.framework import Deployment
    from repro.faults.health import PlatformHealth

__all__ = [
    "InFlightBatch",
    "PlatformState",
    "Candidate",
    "Dispatcher",
    "POLICIES",
]

#: Dispatch policies: ``soc`` scores candidates by predicted SoC and
#: orders queues by (priority, deadline); ``fifo`` routes to the
#: shortest predicted wait and serves strictly in arrival order.
POLICIES = ("soc", "fifo")


@dataclass
class InFlightBatch:
    """One launched batch whose outcome has not yet landed.

    Completion records are materialized when the batch *finishes*, not
    when it launches, so a platform outage (or a transient execution
    failure) can still fail the batch and hand its requests to the
    retry/failover machinery.
    """

    requests: List[Request]
    rung: DegradationRung
    start_s: float
    finish_s: float
    #: Decided at launch (outage underway, or an armed transient
    #: fault): the batch will fail at ``finish_s`` instead of
    #: completing.
    will_fail: bool = False


@dataclass
class PlatformState:
    """One platform's live serving state inside the router."""

    name: str
    deployment: "Deployment"
    ladder: DegradationLadder
    controller: DegradationController
    flush_timeout_s: float
    queue: List[Request] = field(default_factory=list)
    busy_until: float = 0.0
    #: Earliest still-armed flush timer (None when nothing is pending).
    pending_flush_at: Optional[float] = None
    # -- fault / resilience state ---------------------------------------
    #: Live hardware health (None outside fault-injected runs).
    health: Optional["PlatformHealth"] = None
    #: Controller-commanded DVFS state (None at nominal frequency, so
    #: controller-free runs are untouched by the scaling below).
    frequency: Optional[FrequencyState] = None
    #: Per-platform circuit breaker (None when resilience is off).
    breaker: Optional[CircuitBreaker] = None
    #: The ladder compiled against the *healthy* architecture; kept so
    #: recoveries restore it without recompiling.
    base_ladder: Optional[DegradationLadder] = None
    #: The batch currently executing (None while idle).
    inflight: Optional[InFlightBatch] = None
    #: Armed transient faults: each dooms one future batch launch.
    transient_pending: int = 0
    # -- cumulative accounting -----------------------------------------
    batches: int = 0
    requests_served: int = 0
    busy_s: float = 0.0
    energy_j: float = 0.0
    level_sum: int = 0
    failed_batches: int = 0

    def rung_at(self, level: int) -> DegradationRung:
        """The effective rung at a ladder level: the compiled numbers,
        scaled by any active thermal throttle, then by the control
        plane's commanded DVFS state (compute-bound runtime stretch,
        static power tracking V^2)."""
        rung = self.ladder[level]
        if self.health is not None:
            rung = self.health.scale_rung(rung)
        if self.frequency is not None:
            rung = replace(
                rung,
                exec_time_s=scaled_runtime(rung.exec_time_s, self.frequency),
                energy_j=rung.energy_j * self.frequency.static_power_scale,
            )
        return rung

    @property
    def rung(self) -> DegradationRung:
        """The rung currently selected by the degradation controller."""
        return self.rung_at(self.controller.level)

    def available(self, now: float) -> bool:
        """Whether a health-aware router may dispatch here: the
        platform is up and its breaker admits traffic."""
        if self.health is not None and not self.health.up:
            return False
        if self.breaker is not None and not self.breaker.allows(now):
            return False
        return True

    def backlog_s(self, now: float) -> float:
        """Outstanding work in seconds: remaining busy time plus the
        queued batches' execution time at the current rung."""
        rung = self.rung
        queued_batches = math.ceil(len(self.queue) / rung.batch)
        return max(self.busy_until - now, 0.0) + queued_batches * rung.exec_time_s

    def order_queue(self, policy: str) -> None:
        """Apply the dispatch policy's queue ordering in place."""
        if policy == "fifo":
            self.queue.sort(key=lambda r: r.rid)
        else:
            self.queue.sort(
                key=lambda r: (-r.tenant.priority, r.deadline_s, r.rid)
            )

    def mean_level(self) -> float:
        """Mean degradation level over all dispatched batches."""
        if self.batches == 0:
            return 0.0
        return self.level_sum / self.batches


@dataclass(frozen=True)
class Candidate:
    """One scored (platform, batch-plan, perforation-level) assignment."""

    platform: str
    level: int
    batch: int
    predicted_latency_s: float
    predicted_soc: float
    predicted_soc_time: float

    @property
    def feasible(self) -> bool:
        """Whether the prediction lands inside the usable region."""
        return self.predicted_soc_time > 0.0


class Dispatcher:
    """Scores and picks candidate assignments across the fleet."""

    def __init__(self, platforms: Dict[str, PlatformState], policy: str = "soc") -> None:
        if policy not in POLICIES:
            raise ValueError(
                "unknown policy %r (known: %s)" % (policy, ", ".join(POLICIES))
            )
        #: Platforms in deterministic (name) order.
        self.platforms = {name: platforms[name] for name in sorted(platforms)}
        self.policy = policy

    def score(
        self,
        state: PlatformState,
        request: Request,
        now: float,
        level: Optional[int] = None,
    ) -> Candidate:
        """Predict the outcome of routing ``request`` to ``state``.

        The queueing estimate is deliberately simple and deterministic:
        remaining busy time, plus one rung execution per full batch
        already queued ahead, plus the flush timeout when the request
        would not complete a batch by itself, plus its own batch's
        execution.
        """
        level = state.controller.level if level is None else level
        rung = state.rung_at(level)
        queued = len(state.queue)
        wait_s = max(state.busy_until - now, 0.0)
        batches_ahead = queued // rung.batch
        fills_batch = (queued + 1) % rung.batch == 0
        assembly_s = 0.0 if fills_batch else state.flush_timeout_s
        latency = (
            wait_s
            + batches_ahead * rung.exec_time_s
            + assembly_s
            + rung.exec_time_s
        )
        breakdown = soc(
            runtime_s=latency,
            requirement=request.tenant.requirement,
            entropy=rung.entropy * request.difficulty,
            entropy_threshold=state.deployment.entropy_threshold,
            energy_joules=rung.energy_per_item_j,
        )
        return Candidate(
            platform=state.name,
            level=level,
            batch=rung.batch,
            predicted_latency_s=latency,
            predicted_soc=breakdown.value,
            predicted_soc_time=breakdown.soc_time,
        )

    def candidates(
        self,
        request: Request,
        now: float,
        among: Optional[Sequence[str]] = None,
    ) -> List[Candidate]:
        """Score every (optionally restricted) platform for a request."""
        names = sorted(among) if among is not None else list(self.platforms)
        return [
            self.score(self.platforms[name], request, now) for name in names
        ]

    def choose(
        self,
        request: Request,
        now: float,
        among: Optional[Sequence[str]] = None,
    ) -> Optional[Candidate]:
        """The best candidate under the active policy (None when no
        platform is eligible)."""
        scored = self.candidates(request, now, among)
        if not scored:
            return None
        if self.policy == "fifo":
            key = lambda c: (c.predicted_latency_s, c.platform)  # noqa: E731
        else:
            key = lambda c: (-c.predicted_soc, c.predicted_latency_s, c.platform)  # noqa: E731
        return sorted(scored, key=key)[0]
