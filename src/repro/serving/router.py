"""The deadline-aware multi-tenant request router.

:class:`RequestRouter` is a deterministic discrete-event simulation
sitting above a fleet of deployments and below the workload traces:
arrivals, platform-free, flush-timer, fault-injection, retry,
breaker-probe and control-tick events are processed in strict (time,
sequence) order, so a run is bit-identical given the same seeds and
configuration -- asserted via
:meth:`~repro.serving.report.RouterReport.fingerprint`.

Per event the router:

* **admits** the request against bounded queues, deadline feasibility
  and degrade-before-reject -- and, when resilience is on, platform
  health and circuit-breaker state,
* **routes** it to the platform whose current (batch-plan,
  perforation-level) rung promises the best SoC,
* **assembles batches** per platform under the same
  :class:`~repro.core.runtime.server.FlushPolicy` rule the
  single-platform :class:`~repro.core.runtime.server.InferenceServer`
  uses (full batch or flush timeout),
* and lets each platform's
  :class:`~repro.serving.degradation.DegradationController` walk the
  overload ladder as the backlog grows and drains.

Fault injection (:mod:`repro.faults`) plugs into the same loop: a
:class:`~repro.faults.events.FaultTrace` passed to :meth:`run` mutates
per-platform :class:`~repro.faults.health.PlatformHealth` at its
events' timestamps.  Structural faults (SM failures, bandwidth loss)
re-target the platform's ladder at the degraded architecture through
the engine -- a plan-cache miss keyed on the degraded arch, so
occupancy and optSM are recomputed against the surviving hardware;
thermal throttles scale rungs through the DVFS model without a
recompile; outages and transients fail batches outright.  Batches
therefore complete *at finish time*, not at launch: a batch in flight
when its platform dies is failed and its requests -- along with the
queue -- are re-dispatched across the surviving fleet (failover),
retried with deadline-capped backoff, or rejected with an explicit
reason.  Nothing is ever silently lost.

With ``resilience=False`` the router keeps the
every-platform-is-healthy worldview while the faults still bite --
the chaos benchmark's baseline, demonstrating how one dead platform
silently poisons a health-blind fleet.

The router also registers a relay on every deployment engine for the
duration of a run, so rung compilations and cache hits show up in the
structured event log alongside its own decisions.

One loop serves every run: the columnar loop of
:mod:`repro.serving.vec_router`.  This module holds what surrounds it
-- configuration, platform-state construction (with the ladder memo),
the engine relay, ladder re-targeting and platform accounting -- and
:meth:`RequestRouter.run` derives an instrumented run's spans and
metrics from the finished report.  The discrete-event loop the
columnar loop replaced is kept in the test suite
(``tests/serving/event_loop.py``) as its differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.fleet import FleetManager
from repro.core.framework import Deployment
from repro.core.runtime.server import default_flush_timeout
from repro.faults.events import FaultTrace
from repro.faults.health import PlatformHealth
from repro.obs.instrument import Instrumentation
from repro.serving.degradation import DegradationController, DegradationLadder
from repro.serving.dispatch import POLICIES, PlatformState
from repro.serving.report import PlatformStats, RouterReport
from repro.serving.request import TenantLoad
from repro.serving.resilience import CircuitBreaker
from repro.serving.vec_router import run_columnar
from repro.validation import require_finite

__all__ = ["RouterConfig", "RequestRouter"]


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one router instance.

    ``high_water_batches`` / ``low_water_batches`` are expressed in
    units of the platform's rung-0 batch execution time, so the same
    config is meaningful on a 6 ms server GPU and a 40 ms mobile one.

    The resilience block only matters for fault-injected runs:
    ``resilience=False`` disables health-aware dispatch, retries,
    failover and the circuit breakers while faults still apply -- the
    chaos benchmark's "assume everything is healthy" baseline.
    """

    queue_limit: int = 64
    flush_timeout_s: Optional[float] = None  # default: per deployment
    max_levels: int = 4
    batch_growth: int = 2
    max_batch: int = 64
    min_gain: float = 1.02
    high_water_batches: float = 3.0
    low_water_batches: float = 0.75
    window: int = 2
    degradation: bool = True
    degrade_on_admission: bool = True
    policy: str = "soc"
    # -- resilience ------------------------------------------------------
    resilience: bool = True
    #: Retry budget per request for transient batch failures.
    retry_limit: int = 2
    retry_backoff_s: float = 0.05
    retry_backoff_growth: float = 2.0
    #: Consecutive batch failures that trip a platform's breaker open.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before half-opening for a probe.
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if self.policy not in POLICIES:
            raise ValueError(
                "unknown policy %r (known: %s)"
                % (self.policy, ", ".join(POLICIES))
            )
        if self.queue_limit < 1:
            raise ValueError(
                "queue_limit must be >= 1, got %r" % (self.queue_limit,)
            )
        if self.flush_timeout_s is not None and self.flush_timeout_s <= 0:
            raise ValueError(
                "flush_timeout_s must be positive (or None for the "
                "per-deployment default), got %r" % (self.flush_timeout_s,)
            )
        if self.max_levels < 1:
            raise ValueError(
                "max_levels must be >= 1, got %r" % (self.max_levels,)
            )
        if self.batch_growth < 1:
            raise ValueError(
                "batch_growth must be >= 1, got %r" % (self.batch_growth,)
            )
        if self.max_batch < 1:
            raise ValueError(
                "max_batch must be >= 1, got %r" % (self.max_batch,)
            )
        if self.min_gain <= 1.0:
            raise ValueError(
                "min_gain must exceed 1.0, got %r" % (self.min_gain,)
            )
        if not 0 <= self.low_water_batches < self.high_water_batches:
            raise ValueError(
                "need 0 <= low_water_batches < high_water_batches, got "
                "low_water_batches=%r, high_water_batches=%r"
                % (self.low_water_batches, self.high_water_batches)
            )
        if self.window < 1:
            raise ValueError("window must be >= 1, got %r" % (self.window,))
        if self.retry_limit < 0:
            raise ValueError(
                "retry_limit must be >= 0, got %r" % (self.retry_limit,)
            )
        if self.retry_backoff_s <= 0:
            raise ValueError(
                "retry_backoff_s must be positive, got %r"
                % (self.retry_backoff_s,)
            )
        if self.retry_backoff_growth < 1.0:
            raise ValueError(
                "retry_backoff_growth must be >= 1.0, got %r"
                % (self.retry_backoff_growth,)
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                "breaker_threshold must be >= 1, got %r"
                % (self.breaker_threshold,)
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                "breaker_cooldown_s must be positive, got %r"
                % (self.breaker_cooldown_s,)
            )


class RequestRouter:
    """Routes multi-tenant traffic across a fleet of deployments."""

    def __init__(
        self,
        deployments: Union[FleetManager, Mapping[str, Deployment]],
        config: Optional[RouterConfig] = None,
    ) -> None:
        if isinstance(deployments, FleetManager):
            deployments = deployments.deploy_all()
        if not deployments:
            raise ValueError("router needs at least one deployment")
        self.deployments: Dict[str, Deployment] = {
            name: deployments[name] for name in sorted(deployments)
        }
        self.config = config if config is not None else RouterConfig()

    # -- run -------------------------------------------------------------
    def run(
        self,
        loads: Sequence[TenantLoad],
        faults: Optional[FaultTrace] = None,
        obs: Optional[Instrumentation] = None,
        controller: Optional[object] = None,
    ) -> RouterReport:
        """Serve every tenant's trace; returns the aggregate report.

        Each call is an independent simulation: platform state is
        rebuilt from the deployments and nothing carries over between
        runs (the immutable eager ladders are memoized on the
        deployments, so repeat runs skip their build -- see
        :meth:`_build_states`).
        ``faults`` optionally subjects the run to a chaos schedule;
        the report then carries :class:`ResilienceStats`.  ``obs``
        optionally observes the run (spans + metrics), derived from the
        finished report by :meth:`Instrumentation.record_run`; ``run``
        then returns a copy of that report carrying an ``obs`` section,
        and the instrumentation retains the full trace buffer and
        metrics registry for export.
        ``obs=None`` is the only off switch.  One instrumentation
        instance observes one run.

        ``controller`` optionally attaches a predictive control plane
        (duck-typed to :class:`repro.control.plane.ControlPlane`): the
        router notifies it of every arrival, fires its fixed-cadence
        control ticks as ordinary simulation events, and lets it
        pre-warm plan-cache entries, escalate degradation ladders
        ahead of forecast load, and command per-platform DVFS states.
        Degradation ladders are then built *lazily* so the controller's
        pre-warm decides which rungs compile ahead of dispatch.  One
        controller instance observes one run; the report then carries
        a ``control`` section.

        Every run takes the columnar loop,
        :func:`repro.serving.vec_router.run_columnar`, which returns a
        finished report: its records and events are a ledger of
        columns and rows, built before the loop returns.
        """
        before = self._engine_activity()
        report = run_columnar(self, loads, faults, controller)
        if obs is not None:
            after = self._engine_activity()
            obs.record_run(
                report,
                tick_errors=(
                    controller.errors if controller is not None else ()
                ),
                engine_counts={key: after[key] - before[key] for key in after},
            )
            report = replace(report, obs=obs.report_section())
        return report

    # -- setup -----------------------------------------------------------
    def _engines(self) -> list:
        """The fleet's distinct execution engines, in platform order."""
        engines = {}
        for deployment in self.deployments.values():
            engines.setdefault(id(deployment.engine), deployment.engine)
        return list(engines.values())

    def _engine_activity(self) -> Dict[str, int]:
        """Execute and prewarm-hit/miss counts summed over the fleet's
        distinct engines.  The event log relays compiles and cache hits
        but not these, so an observed run passes on their deltas."""
        stats = [engine.stats for engine in self._engines()]
        return {
            "executes": sum(s.execute_calls for s in stats),
            "prewarm_hits": sum(s.prewarm_hits for s in stats),
            "prewarm_misses": sum(s.prewarm_misses for s in stats),
        }

    def _subscribe_engines(self, relay):
        """Register ``relay`` on the fleet's engines, which call it as
        ``relay(kind, platform, **detail)`` for each compile and cache
        hit -- the event log's ``compile`` and ``cache_hit`` kinds --
        until the returned closure removes it.  The caller stamps each
        relay with its own clock."""
        engines = self._engines()
        for engine in engines:
            engine.relays.append(relay)

        def unsubscribe():
            for engine in engines:
                engine.relays.remove(relay)

        return unsubscribe

    def _build_states(self, lazy: bool = False) -> Dict[str, PlatformState]:
        """Fresh per-run platform states over each deployment's ladder.

        Ladder materialization (one compile-and-measure per rung) is
        the dominant fixed cost of a short run, so *eager* ladders are
        memoized on each deployment and survive across runs and router
        instances serving the same fleet:

        * the memo key is every config knob the build reads -- the
          ladder knobs plus ``flush_timeout_s``;
        * a hit is revalidated by the *identity* of the deployment's
          current tuning entry and by its ``power_gating`` /
          ``use_priority_sm`` values, so a recalibrated or
          reconfigured deployment rebuilds;
        * sharing is safe because an eager ladder is never mutated
          once built (fault re-targets build new ladders from
          ``base_ladder.all_rungs()``);
        * lazy ladders (controller runs, whose pre-warm decides which
          rungs compile) are never memoized nor served from the memo.

        Everything a run mutates -- degradation controller, health,
        breaker, queues, accounting -- is built fresh every call.
        """
        config = self.config
        max_levels = config.max_levels if config.degradation else 1
        memo_key = (
            max_levels,
            config.batch_growth,
            config.max_batch,
            config.min_gain,
            config.flush_timeout_s,
        )
        states: Dict[str, PlatformState] = {}
        for name, deployment in self.deployments.items():
            # Lazy ladders get a throwaway memo: never shared.
            memo = (
                {}
                if lazy
                else vars(deployment).setdefault("_ladder_memo", {})
            )
            entry = deployment.current_entry
            knobs = (deployment.power_gating, deployment.use_priority_sm)
            hit = memo.get(memo_key)
            if hit is not None and hit[0] is entry and hit[1] == knobs:
                ladder, flush_timeout = hit[2], hit[3]
            else:
                ladder = DegradationLadder(
                    deployment,
                    max_levels=max_levels,
                    batch_growth=config.batch_growth,
                    max_batch=config.max_batch,
                    min_gain=config.min_gain,
                    lazy=lazy,
                )
                flush_timeout = (
                    config.flush_timeout_s
                    if config.flush_timeout_s is not None
                    else default_flush_timeout(deployment)
                )
                memo[memo_key] = (entry, knobs, ladder, flush_timeout)
            base_time = ladder[0].exec_time_s
            controller = DegradationController(
                n_levels=len(ladder),
                high_water_s=config.high_water_batches * base_time,
                low_water_s=config.low_water_batches * base_time,
                window=config.window,
                enabled=config.degradation,
            )
            states[name] = PlatformState(
                name=name,
                deployment=deployment,
                ladder=ladder,
                controller=controller,
                flush_timeout_s=flush_timeout,
                health=PlatformHealth(base=deployment.arch),
                breaker=(
                    CircuitBreaker(
                        failure_threshold=config.breaker_threshold,
                        cooldown_s=config.breaker_cooldown_s,
                    )
                    if config.resilience
                    else None
                ),
                base_ladder=ladder,
            )
        return states

    # -- fault re-targeting ----------------------------------------------
    def _retarget_ladder(self, state: PlatformState) -> None:
        """Recompile the platform's ladder against its current
        (possibly degraded) architecture.

        Every rung keeps its healthy (batch, perforation) shape but is
        recompiled for the degraded chip -- a compile-cache miss keyed
        on the degraded architecture's name, recomputing occupancy and
        optSM for the surviving SMs.  At full structural health the
        original ladder object is restored (and re-degrading to a
        previously seen health state is a pure cache hit).
        """
        deployment = state.deployment
        arch = state.health.architecture()
        if arch is deployment.arch:
            state.ladder = state.base_ladder
            return
        engine = deployment.engine
        rungs = []
        for rung in state.base_ladder.all_rungs():
            plan = engine.compile_with_batch(
                deployment.network,
                rung.batch,
                rung.perforation,
                arch=arch,
            )
            report = engine.execute(
                plan,
                power_gating=deployment.power_gating,
                use_priority_sm=deployment.use_priority_sm,
            )
            rungs.append(
                replace(
                    rung,
                    plan=plan,
                    exec_time_s=report.total_time_s,
                    energy_j=report.total_energy_joules,
                )
            )
        state.ladder = DegradationLadder.from_rungs(deployment, rungs)

    # -- reporting --------------------------------------------------------
    def _platform_stats(
        self, states: Dict[str, PlatformState], horizon: float
    ) -> List[PlatformStats]:
        stats = []
        for name in sorted(states):
            state = states[name]
            stats.append(
                PlatformStats(
                    platform=name,
                    gpu=state.deployment.arch.name,
                    batches=state.batches,
                    requests=state.requests_served,
                    busy_s=state.busy_s,
                    utilization=(
                        state.busy_s / horizon if horizon > 0 else 0.0
                    ),
                    energy_j=state.energy_j,
                    mean_level=state.mean_level(),
                    peak_level=state.controller.peak_level,
                    final_level=state.controller.level,
                    failed_batches=state.failed_batches,
                )
            )
        return stats
