"""The deadline-aware multi-tenant request router.

:class:`RequestRouter` is a deterministic discrete-event simulation
sitting above a fleet of deployments and below the workload traces:
arrivals, platform-free, flush-timer, fault-injection, retry and
breaker-probe events are processed in strict (time, sequence) order,
so a run is bit-identical given the same seeds and configuration --
asserted via :meth:`~repro.serving.report.RouterReport.fingerprint`.

Per event the router:

* **admits** the request through the
  :class:`~repro.serving.admission.AdmissionController` (bounded
  queues, deadline feasibility, degrade-before-reject, and -- when
  resilience is on -- platform health and circuit-breaker state),
* **routes** it to the platform whose current (batch-plan,
  perforation-level) rung promises the best SoC,
* **assembles batches** per platform under the same
  :class:`~repro.core.runtime.server.FlushPolicy` rule the
  single-platform :class:`~repro.core.runtime.server.InferenceServer`
  uses (full batch or flush timeout),
* and lets each platform's
  :class:`~repro.serving.degradation.DegradationController` walk the
  overload ladder as the backlog grows and drains.

Fault injection (:mod:`repro.faults`) plugs into the same event loop:
a :class:`~repro.faults.events.FaultTrace` passed to :meth:`run`
mutates per-platform :class:`~repro.faults.health.PlatformHealth` at
its events' timestamps.  Structural faults (SM failures, bandwidth
loss) re-target the platform's ladder at the degraded architecture
through the engine -- a plan-cache miss keyed on the degraded arch,
so occupancy and optSM are recomputed against the surviving hardware;
thermal throttles scale rungs through the DVFS model without a
recompile; outages and transients fail batches outright.  Batches
therefore complete *at finish time*, not at launch: a batch in flight
when its platform dies is failed and its requests -- along with the
queue -- are re-dispatched across the surviving fleet (failover),
retried with deadline-capped backoff, or rejected with an explicit
reason.  Nothing is ever silently lost.

With ``resilience=False`` the router keeps PR 2's
every-platform-is-healthy worldview while the faults still bite --
the chaos benchmark's baseline, demonstrating how one dead platform
silently poisons a health-blind fleet.

The router also subscribes to every deployment engine's hook bus for
the duration of a run, so rung compilations and cache hits show up in
the structured event log alongside its own decisions.

Which loop serves a run is decided by the run's inputs, not by a
setting.  A *plain* run -- no fault trace, no control plane -- goes to
the columnar fast loop of :mod:`repro.serving.vec_router`; every other
run goes through the event loop here (:meth:`RequestRouter._run_events`),
which is also the differential oracle the columnar loop is tested
against.  Both give bit-identical fingerprints on plain runs.  Neither
loop holds observability code: :meth:`RequestRouter.run` derives an
instrumented run's spans and metrics from the finished report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.fleet import FleetManager
from repro.core.framework import Deployment
from repro.core.runtime.server import FlushPolicy, default_flush_timeout
from repro.core.satisfaction import soc
from repro.faults.events import FaultEvent, FaultTrace
from repro.faults.health import PlatformHealth
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import ordered_sum
from repro.serving.admission import AdmissionController
from repro.serving.degradation import DegradationController, DegradationLadder
from repro.serving.dispatch import (
    POLICIES,
    Dispatcher,
    InFlightBatch,
    PlatformState,
)
from repro.serving.events import EventLog
from repro.serving.report import (
    CompletedRequest,
    PlatformStats,
    RejectedRequest,
    ResilienceStats,
    RouterReport,
)
from repro.serving.request import Request, TenantLoad, merge_loads
from repro.serving.resilience import CircuitBreaker, RetryPolicy
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


# Event kinds, in tie-break-irrelevant order (the push sequence number
# is the actual tie-breaker).
_ARRIVAL = "arrival"
_FREE = "free"
_FLUSH = "flush"
_FAULT = "fault"
_RETRY = "retry"
_PROBE = "probe"
_TICK = "tick"


class _RunState:
    """Everything mutable about one :meth:`RequestRouter.run` call."""

    def __init__(self, events: EventLog, retry_policy: RetryPolicy) -> None:
        self.events = events
        self.retry_policy = retry_policy
        self.completed: List[CompletedRequest] = []
        self.rejected: List[RejectedRequest] = []
        self.states: Dict[str, PlatformState] = {}
        self.admission: Optional[AdmissionController] = None
        #: Delivery attempts per request id (first dispatch counts).
        self.attempts: Dict[int, int] = {}
        #: Request ids moved off a dead platform by failover.
        self.rescued_rids: Set[int] = set()
        self.outage_started: Dict[str, float] = {}
        self.mttr_episodes: List[float] = []
        self.faults_injected = 0
        self.outages = 0
        self.batch_failures = 0
        self.retries = 0
        self.failovers = 0

    def resilience_stats(self) -> ResilienceStats:
        completed_rids = {r.request.rid for r in self.completed}
        episodes = self.mttr_episodes
        breakers = [
            s.breaker for s in self.states.values() if s.breaker is not None
        ]
        return ResilienceStats(
            faults_injected=self.faults_injected,
            outages=self.outages,
            mttr_s=ordered_sum(episodes) / len(episodes) if episodes else 0.0,
            mttr_episodes=len(episodes),
            batch_failures=self.batch_failures,
            retries=self.retries,
            failovers=self.failovers,
            requests_rescued=len(self.rescued_rids & completed_rids),
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
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
        finished report by :meth:`Instrumentation.record_run`; the
        report then carries an ``obs`` section and the instrumentation
        retains the full trace buffer and metrics registry for export.
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

        The inputs pick the loop.  A plain run (``faults`` and
        ``controller`` None) is served by the columnar fast loop, whose
        report materializes its per-request lists lazily; any other
        run goes through the event loop, :meth:`_run_events`.
        Fingerprints are identical either way, and so is the derived
        ``obs`` section.
        """
        before = self._engine_activity()
        if faults is None and controller is None:
            report = run_columnar(self, loads)
        else:
            report = self._run_events(loads, faults, controller)
        if obs is not None:
            after = self._engine_activity()
            obs.record_run(
                report,
                tick_errors=(
                    controller.errors if controller is not None else ()
                ),
                engine_counts={key: after[key] - before[key] for key in after},
            )
            report.obs = obs.report_section()
        return report

    def _run_events(
        self,
        loads: Sequence[TenantLoad],
        faults: Optional[FaultTrace] = None,
        controller: Optional[object] = None,
    ) -> RouterReport:
        """The discrete-event loop: serves every kind of run, and is
        the oracle the columnar loop is checked against."""
        config = self.config
        if faults is not None:
            unknown = sorted(
                set(faults.platforms) - set(self.deployments)
            )
            if unknown:
                raise ValueError(
                    "fault trace names unknown platforms %s (fleet: %s)"
                    % (", ".join(unknown), ", ".join(self.deployments))
                )
        events = EventLog()
        run = _RunState(
            events,
            RetryPolicy(
                limit=config.retry_limit,
                backoff_s=config.retry_backoff_s,
                growth=config.retry_backoff_growth,
            ),
        )
        unsubscribe = self._subscribe_engines(events)
        try:
            run.states = self._build_states(lazy=controller is not None)
            dispatcher = Dispatcher(run.states, policy=config.policy)
            run.admission = AdmissionController(
                dispatcher,
                queue_limit=config.queue_limit,
                degrade_on_admission=(
                    config.degrade_on_admission and config.degradation
                ),
                health_aware=config.resilience,
            )
            requests = merge_loads(loads)

            heap: List[Tuple[float, int, str, object]] = []
            push_seq = 0

            def push(time_s: float, kind: str, payload: object) -> None:
                nonlocal push_seq
                heapq.heappush(heap, (time_s, push_seq, kind, payload))
                push_seq += 1

            for request in requests:
                push(request.arrival_s, _ARRIVAL, request)
            if faults is not None:
                for fault in faults:
                    push(fault.time_s, _FAULT, fault)
            last_arrival_s = requests[-1].arrival_s if requests else 0.0
            if controller is not None:
                controller.begin(run.states, 0.0)
                if controller.tick_s <= last_arrival_s:
                    push(controller.tick_s, _TICK, controller)

            while heap:
                time_s, _seq, kind, payload = heapq.heappop(heap)
                self._now = time_s
                if kind == _ARRIVAL or kind == _RETRY:
                    if kind == _ARRIVAL and controller is not None:
                        controller.observe_arrival(payload, time_s)
                    self._on_arrival(payload, run, push)
                elif kind == _TICK:
                    self._on_tick(payload, run, push, last_arrival_s)
                elif kind == _FREE:
                    self._on_free(payload, run, push)
                elif kind == _FAULT:
                    self._on_fault(payload, run, push)
                elif kind == _PROBE:
                    self._try_dispatch(payload, run, push)
                else:  # _FLUSH
                    state = payload
                    if (
                        state.pending_flush_at is not None
                        and state.pending_flush_at <= time_s
                    ):
                        state.pending_flush_at = None
                    self._try_dispatch(state, run, push)

            self._reject_stranded(run)
        finally:
            unsubscribe()

        horizon = 0.0
        if run.completed:
            horizon = max(horizon, max(r.finish_s for r in run.completed))
        if requests:
            horizon = max(horizon, requests[-1].arrival_s)
        return RouterReport(
            completed=sorted(run.completed, key=lambda r: r.request.rid),
            rejected=sorted(run.rejected, key=lambda r: r.request.rid),
            platforms=self._platform_stats(run.states, horizon),
            events=events,
            horizon_s=horizon,
            resilience=(
                run.resilience_stats() if faults is not None else None
            ),
            control=(
                controller.report_section()
                if controller is not None
                else None
            ),
        )

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

    def _subscribe_engines(self, events: EventLog):
        """Relay engine compile/cache activity into the event log for
        the duration of one run; returns the unsubscribe closure.

        Relayed events are stamped with the run clock, which starts
        here at 0.0: activity during the state build precedes every
        simulated event."""
        self._now = 0.0
        engines = self._engines()

        def on_compile(key, plan, **_ignored):
            events.record(
                "compile",
                time_s=self._now,
                platform=key.arch,
                network=key.network,
                batch=key.batch,
                perforation=key.perforation,
            )

        def on_cache_hit(kind, key, **_ignored):
            events.record(
                "cache_hit",
                time_s=self._now,
                platform=getattr(key, "arch", None),
                cache=kind,
            )

        for engine in engines:
            engine.hooks.subscribe("on_compile", on_compile)
            engine.hooks.subscribe("on_cache_hit", on_cache_hit)

        def unsubscribe():
            for engine in engines:
                engine.hooks.unsubscribe("on_compile", on_compile)
                engine.hooks.unsubscribe("on_cache_hit", on_cache_hit)

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

    # -- event handlers ---------------------------------------------------
    def _on_arrival(self, request, run: _RunState, push) -> None:
        now = self._now
        decision = run.admission.admit(request, now)
        if not decision.admitted:
            self._reject(request, decision.reason, run)
            return
        candidate = decision.candidate
        state = run.states[candidate.platform]
        if decision.reason == "ok-degraded":
            run.events.record(
                "degrade",
                time_s=now,
                platform=state.name,
                tenant=request.tenant.name,
                request_ids=(request.rid,),
                cause="admission",
                level=state.controller.level,
            )
        state.queue.append(request)
        run.events.record(
            "enqueue",
            time_s=now,
            tenant=request.tenant.name,
            platform=state.name,
            request_ids=(request.rid,),
            level=candidate.level,
            predicted_soc=candidate.predicted_soc,
            predicted_latency_s=candidate.predicted_latency_s,
        )
        self._try_dispatch(state, run, push)

    def _on_free(self, state: PlatformState, run: _RunState, push) -> None:
        """A platform's batch reached its finish time: land its
        outcome (complete or fail), then keep the platform busy."""
        now = self._now
        batch = state.inflight
        if batch is not None and batch.finish_s <= now:
            state.inflight = None
            if batch.will_fail:
                self._on_batch_failure(state, batch, run, push)
            else:
                self._complete_batch(state, batch, run)
        self._try_dispatch(state, run, push)

    def _on_fault(self, fault: FaultEvent, run: _RunState, push) -> None:
        """Apply one injected fault to its platform's health and act
        on the consequence."""
        now = self._now
        state = run.states[fault.platform]
        consequence = state.health.apply(fault)
        run.faults_injected += 1
        run.events.record(
            "fault",
            time_s=now,
            platform=fault.platform,
            fault_kind=fault.kind,
            episode=fault.episode,
            sm_fail_fraction=fault.sm_fail_fraction,
            relative_frequency=fault.relative_frequency,
            bandwidth_scale=fault.bandwidth_scale,
        )
        if consequence == "down":
            run.outages += 1
            run.outage_started[fault.platform] = now
            self._on_outage(state, run, push)
        elif consequence == "up":
            started = run.outage_started.pop(fault.platform, None)
            if started is not None:
                run.mttr_episodes.append(now - started)
            # Surviving queue (health-blind mode) gets served again.
            self._try_dispatch(state, run, push)
        elif consequence == "recompile":
            self._retarget_ladder(state)
        elif consequence == "transient":
            state.transient_pending += 1
        # "rescale" needs no action: rungs are scaled lazily through
        # PlatformState.rung_at / PlatformHealth.scale_rung.

    def _on_tick(
        self, controller, run: _RunState, push, last_arrival_s: float
    ) -> None:
        """One control-plane tick: let the controller forecast and
        act, then mirror its actions into the event log, wake
        any platform it changed, and re-arm the next tick (ticks stop
        once the trace's last arrival is behind us -- the drain phase
        is the reactive machinery's business)."""
        now = self._now
        outcome = controller.tick(now, run.states)
        run.events.record(
            "control_tick",
            time_s=now,
            observed_rps=outcome.observed_rps,
            forecast_rps=outcome.forecast_rps,
            level=outcome.target_level,
        )
        for platform, level, batch in outcome.prewarmed:
            run.events.record(
                "prewarm",
                time_s=now,
                platform=platform,
                level=level,
                batch=batch,
            )
        for platform, _old, level in outcome.degraded:
            run.events.record(
                "degrade",
                time_s=now,
                platform=platform,
                cause="forecast",
                level=level,
            )
        for platform, relative_frequency in outcome.dvfs_moves:
            run.events.record(
                "dvfs",
                time_s=now,
                platform=platform,
                relative_frequency=relative_frequency,
            )
        for name in sorted(outcome.changed_platforms):
            self._try_dispatch(run.states[name], run, push)
        next_tick = now + controller.tick_s
        if next_tick <= last_arrival_s:
            push(next_tick, _TICK, controller)

    def _on_outage(self, state: PlatformState, run: _RunState, push) -> None:
        """The platform just died.  Resilient mode evacuates its work
        across the surviving fleet; health-blind mode lets the batch
        in flight time out and fail."""
        if not self.config.resilience:
            if state.inflight is not None:
                state.inflight.will_fail = True
            return
        victims: List[Request] = []
        if state.inflight is not None:
            victims.extend(state.inflight.requests)
            state.inflight = None
        victims.extend(state.queue)
        state.queue.clear()
        state.busy_until = self._now
        for request in sorted(victims, key=lambda r: r.rid):
            self._failover(request, state.name, run, push)

    def _failover(
        self, request, origin: str, run: _RunState, push
    ) -> None:
        """Re-dispatch one request off a dead platform through the
        normal admission path (health-aware, so the dead platform is
        excluded); explicit rejection when nobody can take it."""
        now = self._now
        decision = run.admission.admit(request, now)
        if not decision.admitted:
            self._reject(request, "outage", run, origin=origin)
            return
        run.failovers += 1
        run.rescued_rids.add(request.rid)
        target = run.states[decision.candidate.platform]
        if decision.reason == "ok-degraded":
            run.events.record(
                "degrade",
                time_s=now,
                platform=target.name,
                tenant=request.tenant.name,
                request_ids=(request.rid,),
                cause="failover",
                level=target.controller.level,
            )
        target.queue.append(request)
        run.events.record(
            "failover",
            time_s=now,
            tenant=request.tenant.name,
            platform=target.name,
            request_ids=(request.rid,),
            origin=origin,
            level=decision.candidate.level,
        )
        self._try_dispatch(target, run, push)

    def _on_batch_failure(
        self, state: PlatformState, batch: InFlightBatch, run: _RunState, push
    ) -> None:
        """A launched batch did not complete: account it, trip the
        breaker, and walk every member through retry-or-reject."""
        now = self._now
        state.failed_batches += 1
        run.batch_failures += 1
        rids = tuple(r.rid for r in batch.requests)
        run.events.record(
            "batch_failed",
            time_s=now,
            platform=state.name,
            request_ids=rids,
            level=batch.rung.level,
        )
        if state.breaker is not None:
            move = state.breaker.on_failure(now)
            if move is not None:
                run.events.record(move, time_s=now, platform=state.name)
                if move == "breaker_open":
                    push(
                        now + self.config.breaker_cooldown_s, _PROBE, state
                    )
        for request in batch.requests:
            self._retry_or_reject(request, run, push)

    def _retry_or_reject(self, request, run: _RunState, push) -> None:
        """Deadline-aware retry with budget-capped backoff; explicit
        rejection once the budget (or the deadline) is spent."""
        now = self._now
        attempt = run.attempts.get(request.rid, 0) + 1
        run.attempts[request.rid] = attempt
        if self.config.resilience:
            delay = run.retry_policy.backoff_for(attempt, now, request)
            if delay is not None:
                run.retries += 1
                run.events.record(
                    "retry",
                    time_s=now,
                    tenant=request.tenant.name,
                    request_ids=(request.rid,),
                    attempt=attempt,
                    backoff_s=delay,
                )
                push(now + delay, _RETRY, request)
                return
            self._reject(request, "retries-exhausted", run)
            return
        self._reject(request, "failed", run)

    def _reject(
        self, request, reason: str, run: _RunState, **detail
    ) -> None:
        run.rejected.append(RejectedRequest(request=request, reason=reason))
        run.events.record(
            "reject",
            time_s=self._now,
            tenant=request.tenant.name,
            request_ids=(request.rid,),
            reason=reason,
            **detail,
        )

    def _reject_stranded(self, run: _RunState) -> None:
        """Zero-loss backstop: any request still queued (or somehow in
        flight) when the event heap drains is explicitly rejected."""
        for name in sorted(run.states):
            state = run.states[name]
            stranded: List[Request] = []
            if state.inflight is not None:
                stranded.extend(state.inflight.requests)
                state.inflight = None
            stranded.extend(state.queue)
            state.queue.clear()
            # Explicit rid order: the inflight batch's internal order
            # and the queue's policy order are incidental here, and a
            # policy-ordered queue with colliding deadlines would
            # otherwise leak dict/insertion order into the event log.
            for request in sorted(stranded, key=lambda r: r.rid):
                self._reject(request, "stranded", run, platform=name)

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

    def _try_dispatch(self, state: PlatformState, run: _RunState, push) -> None:
        """Launch batches on one platform while it is idle and its
        queue satisfies the flush policy; otherwise arm a flush timer.

        Idle means no batch in flight, not ``busy_until <= now``: an
        event popping at the exact instant a batch finishes, ahead of
        that batch's free event, must not launch over it."""
        now = self._now
        while state.inflight is None and state.queue:
            if self.config.resilience and not state.available(now):
                # Down, or breaker open/probing: hold the queue.  A
                # probe or restore event will wake the platform up.
                return
            rung = state.rung
            policy = FlushPolicy(
                capacity=rung.batch, timeout_s=state.flush_timeout_s
            )
            state.order_queue(self.config.policy)
            head_arrival = state.queue[0].arrival_s
            if not policy.should_flush(len(state.queue), now, head_arrival):
                flush_at = policy.flush_at(head_arrival)
                if (
                    state.pending_flush_at is None
                    or flush_at < state.pending_flush_at
                ):
                    state.pending_flush_at = flush_at
                    push(flush_at, _FLUSH, state)
                return
            self._launch(state, rung, run, push)

    def _launch(self, state: PlatformState, rung, run: _RunState, push) -> None:
        now = self._now
        take = min(len(state.queue), rung.batch)
        batch_requests = state.queue[:take]
        del state.queue[:take]
        will_fail = False
        if state.health is not None and not state.health.up:
            # Health-blind launch onto a dead platform: doomed.
            will_fail = True
        elif state.transient_pending > 0:
            state.transient_pending -= 1
            will_fail = True
        finish = now + rung.exec_time_s
        state.busy_until = finish
        state.batches += 1
        state.level_sum += rung.level
        state.inflight = InFlightBatch(
            requests=batch_requests,
            rung=rung,
            start_s=now,
            finish_s=finish,
            will_fail=will_fail,
        )
        if state.breaker is not None:
            move = state.breaker.on_dispatch(now)
            if move is not None:
                run.events.record(move, time_s=now, platform=state.name)
        push(finish, _FREE, state)
        run.events.record(
            "dispatch",
            time_s=now,
            platform=state.name,
            request_ids=tuple(r.rid for r in batch_requests),
            level=rung.level,
            batch=take,
            capacity=rung.batch,
            finish_s=finish,
        )
        # Degradation reacts to the *standing* queue left behind: the
        # work the platform is already committed to does not count,
        # mirroring how the calibrator scores only new observations.
        queued_batches = -(-len(state.queue) // rung.batch)  # ceil
        move = state.controller.observe(queued_batches * rung.exec_time_s)
        if move is not None:
            run.events.record(
                move,
                time_s=now,
                platform=state.name,
                cause="backlog",
                level=state.controller.level,
            )

    def _complete_batch(
        self, state: PlatformState, batch: InFlightBatch, run: _RunState
    ) -> None:
        """Materialize a successfully finished batch's outcomes."""
        now = self._now
        rung = batch.rung
        take = len(batch.requests)
        state.requests_served += take
        state.busy_s += rung.exec_time_s
        state.energy_j += rung.energy_j
        if state.breaker is not None:
            move = state.breaker.on_success(now)
            if move is not None:
                run.events.record(move, time_s=now, platform=state.name)
        for request in batch.requests:
            entropy = rung.entropy * request.difficulty
            breakdown = soc(
                runtime_s=batch.finish_s - request.arrival_s,
                requirement=request.tenant.requirement,
                entropy=entropy,
                entropy_threshold=state.deployment.entropy_threshold,
                energy_joules=rung.energy_per_item_j,
            )
            run.completed.append(
                CompletedRequest(
                    request=request,
                    platform=state.name,
                    level=rung.level,
                    batch=take,
                    start_s=batch.start_s,
                    finish_s=batch.finish_s,
                    entropy=entropy,
                    soc=breakdown,
                )
            )
        run.events.record(
            "complete",
            time_s=batch.finish_s,
            platform=state.name,
            request_ids=tuple(r.rid for r in batch.requests),
            level=rung.level,
        )

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
