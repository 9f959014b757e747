"""Per-platform serving state and the dispatch policies.

Each platform of the fleet is wrapped in a :class:`PlatformState`
carrying its deployment, degradation ladder/controller, bounded queue,
fault/resilience state and outstanding-work accounting.  The serving
loop (:mod:`repro.serving.vec_router`) scores a request's candidate
assignments -- one per platform, at that platform's current ladder
level, i.e. a concrete (platform, batch-plan, perforation-level)
triple -- by *predicted* SoC: the analytical time/energy numbers of
the rung's compiled plan (:meth:`PlatformState.rung_at`) plus a
deterministic queueing estimate, pushed through the paper's Eq. 15.
The highest predicted SoC wins (ties broken by latency, then platform
name); a ``fifo`` policy that ignores SoC and priorities is kept as
the baseline the overload benchmark compares against.  The control
plane (:mod:`repro.control.plane`) reads and steers the same states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.gpu.dvfs import FrequencyState, scaled_runtime
from repro.serving.degradation import (
    DegradationController,
    DegradationLadder,
    DegradationRung,
)
from repro.serving.resilience import CircuitBreaker

if TYPE_CHECKING:  # duck-typed, avoids importing the framework here
    from repro.core.framework import Deployment
    from repro.faults.health import PlatformHealth

__all__ = ["PlatformState", "POLICIES"]

#: Dispatch policies: ``soc`` scores candidates by predicted SoC and
#: orders queues by (priority, deadline); ``fifo`` routes to the
#: shortest predicted wait and serves strictly in arrival order.
POLICIES = ("soc", "fifo")


@dataclass
class PlatformState:
    """One platform's live serving state inside the router."""

    name: str
    deployment: "Deployment"
    ladder: DegradationLadder
    controller: DegradationController
    flush_timeout_s: float
    #: Queued requests, as the serving loop keeps them (request ids).
    queue: list = field(default_factory=list)
    #: When the batch in flight finishes (the platform is busy until).
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
    #: The batch currently executing, as the serving loop keeps it
    #: (None while idle).
    inflight: Optional[tuple] = None
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

    def available(self, now: float) -> bool:
        """Whether a health-aware router may dispatch here: the
        platform is up and its breaker admits traffic."""
        if self.health is not None and not self.health.up:
            return False
        if self.breaker is not None and not self.breaker.allows(now):
            return False
        return True

    def mean_level(self) -> float:
        """Mean degradation level over all dispatched batches."""
        if self.batches == 0:
            return 0.0
        return self.level_sum / self.batches
