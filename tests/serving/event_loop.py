"""The discrete-event loop: the serving loop's differential oracle.

``RequestRouter.run`` serves every run with the columnar loop of
:mod:`repro.serving.vec_router`.  This module keeps the loop it
replaced -- one object per request, per event and per candidate,
with admission (:class:`AdmissionController`) and placement
(:class:`Dispatcher`) as separate objects, and one ``heapq`` of every
event -- as the independent second implementation the tests compare
it against, on plain, chaos and controller runs alike::

    from tests.serving.event_loop import run_events

    oracle = run_events(router, loads, faults=faults, controller=plane)
    assert router.run(loads, faults, controller=other).fingerprint() \
        == oracle.fingerprint()

The code is the event loop as it left ``src/``, changed only where the
move needs it: the handlers live on :class:`EventLoop` (which reads
the router's configuration and shared helpers through delegation), the
platform-state helpers only this loop uses are functions here
(:func:`current_rung`, :func:`backlog_s`, :func:`order_queue`), and
:func:`merge_loads` -- the ``Request``-object twin of
``ArrivalColumns`` -- moved in with it, and its record lists and
:class:`~tests.serving.event_log.EventLog` reach the report through
:func:`~tests.serving.event_log.ledger_of`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.runtime.server import FlushPolicy
from repro.core.satisfaction import soc
from repro.faults.events import FaultEvent, FaultTrace
from repro.obs.metrics import ordered_sum
from repro.serving.degradation import DegradationRung
from repro.serving.dispatch import POLICIES, PlatformState
from repro.serving.report import (
    CompletedRequest,
    RejectedRequest,
    ResilienceStats,
    RouterReport,
)
from repro.serving.request import Request, TenantLoad, _check_unique_tenants
from repro.serving.resilience import RetryPolicy
from tests.serving.event_log import EventLog, ledger_of

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Candidate",
    "Dispatcher",
    "EventLoop",
    "InFlightBatch",
    "backlog_s",
    "current_rung",
    "merge_loads",
    "order_queue",
    "run_events",
]


def run_events(
    router,
    loads: Sequence[TenantLoad],
    faults: Optional[FaultTrace] = None,
    controller: Optional[object] = None,
) -> RouterReport:
    """Serve one run of ``router`` through the event loop (the same
    arguments as ``RequestRouter.run``, minus ``obs``)."""
    return EventLoop(router).run(loads, faults, controller)


def merge_loads(loads: Sequence[TenantLoad]) -> List[Request]:
    """Interleave every tenant's trace into one arrival-ordered stream.

    Ordering is total and deterministic: (arrival time, tenant name,
    per-tenant position); request ids are assigned along that order.
    """
    _check_unique_tenants(loads)
    keyed = []
    for load in loads:
        trace = load.trace
        for position in range(trace.n_requests):
            keyed.append(
                (
                    float(trace.arrivals_s[position]),
                    load.tenant.name,
                    position,
                    load.tenant,
                    float(trace.difficulty[position]),
                )
            )
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        Request(rid=rid, tenant=tenant, arrival_s=arrival, difficulty=difficulty)
        for rid, (arrival, _name, _pos, tenant, difficulty) in enumerate(keyed)
    ]


def current_rung(state: PlatformState) -> DegradationRung:
    """The rung currently selected by the degradation controller."""
    return state.rung_at(state.controller.level)


def backlog_s(state: PlatformState, now: float) -> float:
    """Outstanding work in seconds: remaining busy time plus the
    queued batches' execution time at the current rung."""
    current = current_rung(state)
    queued_batches = math.ceil(len(state.queue) / current.batch)
    return (
        max(state.busy_until - now, 0.0)
        + queued_batches * current.exec_time_s
    )


def order_queue(state: PlatformState, policy: str) -> None:
    """Apply the dispatch policy's queue ordering in place."""
    if policy == "fifo":
        state.queue.sort(key=lambda r: r.rid)
    else:
        state.queue.sort(
            key=lambda r: (-r.tenant.priority, r.deadline_s, r.rid)
        )


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


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of admitting one request."""

    admitted: bool
    reason: str  # "ok", "ok-degraded", "saturated" or "infeasible"
    candidate: Optional[Candidate] = None

    @property
    def platform(self) -> Optional[str]:
        """The platform the request was routed to (None on reject)."""
        return self.candidate.platform if self.candidate else None


class AdmissionController:
    """Bounded-queue, deadline-aware admission for the fleet router."""

    def __init__(
        self,
        dispatcher: Dispatcher,
        queue_limit: int,
        degrade_on_admission: bool = True,
        health_aware: bool = True,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.dispatcher = dispatcher
        self.queue_limit = queue_limit
        self.degrade_on_admission = degrade_on_admission
        #: When False the controller routes as if every platform were
        #: permanently healthy -- the pre-fault-layer behaviour the
        #: chaos benchmark uses as its baseline.
        self.health_aware = health_aware

    def open_platforms(self, now: float = 0.0) -> list:
        """Names of platforms with queue space left (and, when
        health-aware, that are up with an admitting breaker)."""
        names = []
        for name, state in self.dispatcher.platforms.items():
            if len(state.queue) >= self.queue_limit:
                continue
            if self.health_aware and not state.available(now):
                continue
            names.append(name)
        return names

    def admit(self, request: Request, now: float) -> AdmissionDecision:
        """Decide one request's fate; escalates a degradation
        controller when that is what admission takes."""
        open_names = self.open_platforms(now)
        if not open_names:
            return AdmissionDecision(admitted=False, reason="saturated")
        best = self.dispatcher.choose(request, now, among=open_names)
        if best.feasible or not request.has_deadline:
            return AdmissionDecision(admitted=True, reason="ok", candidate=best)
        rescue = self._rescue(request, now, open_names)
        if rescue is not None:
            state = self.dispatcher.platforms[rescue.platform]
            state.controller.escalate_to(rescue.level)
            return AdmissionDecision(
                admitted=True, reason="ok-degraded", candidate=rescue
            )
        return AdmissionDecision(admitted=False, reason="infeasible")

    def _rescue(self, request: Request, now: float, open_names) -> Optional[Candidate]:
        """The best feasible deeper-rung candidate, if any.

        Each platform contributes its *shallowest* feasible deeper
        level (degrade no further than needed); among those the usual
        policy ordering picks the winner.
        """
        if not self.degrade_on_admission:
            return None
        feasible = []
        for name in open_names:
            state = self.dispatcher.platforms[name]
            if not state.controller.enabled:
                continue
            for level in range(state.controller.level + 1, len(state.ladder)):
                candidate = self.dispatcher.score(state, request, now, level)
                if candidate.feasible:
                    feasible.append(candidate)
                    break
        if not feasible:
            return None
        return sorted(
            feasible,
            key=lambda c: (-c.predicted_soc, c.predicted_latency_s, c.platform),
        )[0]


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


class EventLoop:
    """One router's discrete-event loop.  Attribute reads it does not
    define itself -- the configuration, ``deployments``,
    ``_build_states``, ``_retarget_ladder``, ``_platform_stats`` -- go
    to the router."""

    def __init__(self, router) -> None:
        self.router = router
        self._now = 0.0

    def __getattr__(self, name):
        return getattr(self.router, name)

    def _subscribe_engines(self, events: EventLog):
        """The router's engine relay, recorded into ``events`` at the
        loop clock (0.0 while the platform states are built)."""
        self._now = 0.0

        def relay(kind, platform, **detail):
            events.record(kind, time_s=self._now, platform=platform, **detail)

        return self.router._subscribe_engines(relay)

    def run(
        self,
        loads: Sequence[TenantLoad],
        faults: Optional[FaultTrace] = None,
        controller: Optional[object] = None,
    ) -> RouterReport:
        """Serve every tenant's trace; returns the aggregate report."""
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
                        controller.observe_arrival(
                            payload.tenant.name, time_s
                        )
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
            platforms=self._platform_stats(run.states, horizon),
            horizon_s=horizon,
            resilience=(
                run.resilience_stats() if faults is not None else None
            ),
            control=(
                controller.report_section()
                if controller is not None
                else None
            ),
            ledger=ledger_of(
                sorted(run.completed, key=lambda r: r.request.rid),
                sorted(run.rejected, key=lambda r: r.request.rid),
                events,
            ),
        )

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
            delay = run.retry_policy.backoff_for(
                attempt, now, request.deadline_s
            )
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
            rung = current_rung(state)
            policy = FlushPolicy(
                capacity=rung.batch, timeout_s=state.flush_timeout_s
            )
            order_queue(state, self.config.policy)
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
