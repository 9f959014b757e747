"""The columnar loop: the one serving loop behind :meth:`RequestRouter.run`.

Every run -- plain, fault-injected, predictively controlled, observed
or not -- is served here.  The per-request handlers (arrival,
admission, dispatch, flush, completion) run over column-major state:
:class:`repro.serving.request.ArrivalColumns` for the request stream,
a ``heapq`` of ``(time_s, seq, kind, payload)`` tuples for every other
event, plain-Python mirrors of the per-platform hot fields, and
per-(platform, rung) accuracy columns precomputed across the whole
request vector with :func:`soc_accuracy_vec`.  Requests stay virtual
(integer row ids), every event is appended as the ledger's own row,
and whole saturation bursts -- every arrival landing before the next
heap event while no platform can take one -- are admitted as rejects
in one ``bisect_right`` instead of per-request admission.  When the
run ends one vectorized pass over the completed batches derives every
record's SoC breakdown, and :func:`run_columnar` returns a finished
report: its :class:`~repro.serving.ledger.Ledger` -- records as
columns, events as rows -- is built, and the run keeps nothing else
alive.  No per-request object is built.

The rare handlers ride the same heap as more event kinds: injected
faults (outage evacuation and failover, health-keyed ladder
re-targets, throttle rescales, transients), batch failures with the
circuit breaker and deadline-capped retries, breaker probes, and the
control plane's ticks.  None of them touches the plain path's code.
Like the rest of the loop they hold no observability code:
``RequestRouter.run`` derives an instrumented run's spans and metrics
from the finished report.

The loop is a discrete-event simulation with a strict total order:
arrivals take sequence numbers ``0..n-1``, the fault trace the next
ones in trace order, the first control tick the next, and every event
pushed while the run goes everything after; ``(time_s, seq)`` orders
them all.  Every float is produced by one fixed expression (same
operand order, same association), so a run is bit-identical given the
same seeds and configuration -- asserted through
:meth:`~repro.serving.report.RouterReport.fingerprint`.  The
discrete-event loop this one replaced, object per event, lives on as
the test suite's differential oracle (``tests/serving/event_loop.py``);
``tests/serving/test_backend_equivalence.py`` holds the two to equal
fingerprints, event logs and span exports on every kind of run.

Platform states come from ``router._build_states`` (which memoizes
each deployment's eager ladder across runs), the real
``DegradationController`` walks each ladder, and every rung is read
through ``PlatformState.rung_at`` on first use, so a lazy (controller)
ladder materializes exactly when serving first needs the rung.  The
engine relay (``router._subscribe_engines``) stays subscribed for the
whole run and stamps each compile and cache hit with the loop clock,
in program order among the loop's own rows.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Dict, List, Sequence

import numpy as np

from repro.obs.metrics import ordered_sum
from repro.serving.ledger import Ledger
from repro.serving.report import ResilienceStats, RouterReport
from repro.serving.request import ArrivalColumns, TenantLoad
from repro.serving.resilience import RetryPolicy

__all__ = ["run_columnar", "soc_accuracy_vec"]

_INF = math.inf

# Heap event kinds (arrivals ride their own pre-sorted columns).
_FREE = 0
_FLUSH = 1
_FAULT = 2
_RETRY = 3
_PROBE = 4
_TICK = 5

# Sorted detail keys of each event shape the hot path writes.
_ENQUEUE_KEYS = ("level", "predicted_latency_s", "predicted_soc")
_REASON_KEYS = ("reason",)
_DISPATCH_KEYS = ("batch", "capacity", "finish_s", "level")
_LEVEL_KEYS = ("level",)
_CAUSE_KEYS = ("cause", "level")


def soc_accuracy_vec(entropies: np.ndarray, entropy_threshold) -> np.ndarray:
    """Element-wise :func:`repro.core.satisfaction.soc_accuracy`.

    Evaluates the scalar function's exact operation order over a
    float64 array, so every element is bit-identical to the scalar
    call: ``1.0`` up to the threshold, ``threshold / entropy`` past
    it.  ``entropy_threshold`` is one threshold or one per element.
    Masked-out lanes may compute ``inf`` (a zero entropy), hence
    the ``np.errstate``; the selected lanes match the scalar branch.
    """
    values = np.asarray(entropies, dtype=np.float64)
    if np.any(values < 0) or np.any(np.asarray(entropy_threshold) <= 0):
        raise ValueError("entropy must be >= 0 and threshold > 0")
    with np.errstate(divide="ignore", over="ignore"):
        degraded = entropy_threshold / values
    return np.where(values <= entropy_threshold, 1.0, degraded)


def _row(kind, time_s, tenant=None, platform=None, request_ids=(), **detail):
    """A rare event's ledger row, its detail keys sorted."""
    keys = tuple(sorted(detail))
    return (kind, keys, tuple([detail[key] for key in keys]), time_s, tenant,
            platform, request_ids)


class _P:
    """Hot per-platform mirror of a ``PlatformState``.

    The state object holds the platform's live serving state --
    queue (of row ids), batch in flight, busy horizon, flush timer,
    health, breaker, degradation controller, accounting -- which the
    report and the control plane read; this mirror caches what the
    inner loop derives from it per arrival: the current level's
    (batch, exec, energy-per-item, accuracy-column) scalars.
    Rung numbers are read through ``state.rung_at`` on first use and
    cached per level until :meth:`refresh` (a throttle, a re-target,
    a DVFS move) or :meth:`set_level` (any level change) drops them.
    """

    __slots__ = (
        "index",
        "name",
        "state",
        "ctrl",
        "breaker",
        "level",
        "queue",
        "dirty",
        "ft",
        "thr",
        "difficulty",
        "gated",
        "will_fail",
        "lapse_at",
        "rungs",
        "columns",
        "cur",
        "cur_bl",
        "cur_el",
        "cur_epi",
        "cur_sa",
    )

    def __init__(self, index: int, name: str, state, difficulty, breaker):
        self.index = index
        self.name = name
        self.state = state
        self.ctrl = state.controller
        #: The breaker the loop drives (None on runs that cannot fail
        #: a batch, where it would never leave "closed").
        self.breaker = breaker
        self.queue: List[int] = state.queue
        self.dirty = False
        self.ft = state.flush_timeout_s
        self.thr = state.deployment.entropy_threshold
        self.difficulty = difficulty
        #: Whether health-aware admission must ask ``state.available``
        #: (the platform is down or its breaker is not closed).
        self.gated = False
        #: Whether the batch in flight fails at its finish time.
        self.will_fail = False
        #: The instant an open breaker lapses to half-open (its probe).
        self.lapse_at = _INF
        #: Per level: (rung level, batch, exec_s, energy_j, epi, entropy).
        self.rungs: Dict[int, tuple] = {}
        #: Accuracy column per rung entropy, over every request.
        self.columns: Dict[float, List[float]] = {}
        self.set_level(self.ctrl.level)

    def set_level(self, level: int) -> None:
        """Follow a controller move; the level's numbers load on use."""
        self.level = level
        self.cur_sa = None

    def refresh(self) -> None:
        """Drop every cached rung (their effective numbers moved)."""
        self.rungs.clear()
        self.set_level(self.ctrl.level)

    def rung(self, level: int) -> tuple:
        numbers = self.rungs.get(level)
        if numbers is None:
            rung = self.state.rung_at(level)
            numbers = self.rungs[level] = (
                rung.level, rung.batch, rung.exec_time_s, rung.energy_j,
                rung.energy_per_item_j, rung.entropy,
            )
        return numbers

    def column(self, entropy: float) -> List[float]:
        column = self.columns.get(entropy)
        if column is None:
            column = self.columns[entropy] = soc_accuracy_vec(
                entropy * self.difficulty, self.thr
            ).tolist()
        return column

    def load(self) -> List[float]:
        """Cache the current level's numbers; returns its column."""
        numbers = self.cur = self.rung(self.level)
        self.cur_bl = numbers[1]
        self.cur_el = numbers[2]
        self.cur_epi = numbers[4]
        column = self.cur_sa = self.column(numbers[5])
        return column


class _Resilience:
    """The recovery counters of one fault-injected run."""

    def __init__(self) -> None:
        self.faults_injected = 0
        self.outages = 0
        self.batch_failures = 0
        self.retries = 0
        self.failovers = 0
        #: Delivery attempts per request id (first dispatch counts).
        self.attempts: Dict[int, int] = {}
        #: Request ids moved off a dead platform by failover.
        self.rescued: set = set()
        self.outage_started: Dict[str, float] = {}
        self.mttr_episodes: List[float] = []

    def stats(self, completed_rids, breakers) -> ResilienceStats:
        episodes = self.mttr_episodes
        return ResilienceStats(
            faults_injected=self.faults_injected,
            outages=self.outages,
            mttr_s=ordered_sum(episodes) / len(episodes) if episodes else 0.0,
            mttr_episodes=len(episodes),
            batch_failures=self.batch_failures,
            retries=self.retries,
            failovers=self.failovers,
            requests_rescued=len(self.rescued.intersection(completed_rids)),
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
        )


def _request_columns(cols: ArrivalColumns, rid: np.ndarray) -> dict:
    """The request columns every record has, for rows ``rid``, as the
    tuples a ledger holds (built here, as each list is made, rather
    than copied when the ledger is: the collector then walks each
    column once, as it walked the lists)."""
    tenants = np.array(cols.tenants, object)[cols.tenant_index[rid]]
    tenants = tenants.tolist()
    return {
        "rid": tuple(rid.tolist()),
        "tenant": tuple([tenant.name for tenant in tenants]),
        "priority": tuple([tenant.priority for tenant in tenants]),
        "tenant_obj": tuple(tenants),
        "arrival_s": tuple(cols.arrivals[rid].tolist()),
        "difficulty": tuple(cols.difficulty[rid].tolist()),
    }


def _completed_columns(cols: ArrivalColumns, batches: List[tuple]) -> dict:
    """The completed records, in rid order, from the batch rows
    ``(rids, name, level, take, start, finish, epi, ent, thr)``, in
    :func:`repro.core.satisfaction.soc`'s exact operation order
    element-wise (the same inputs raise the same errors)."""
    sizes = [len(row[0]) for row in batches]
    rid = np.fromiter(
        itertools.chain.from_iterable(row[0] for row in batches), np.int64
    )
    order = np.argsort(rid, kind="stable")
    rid = rid[order]

    def per_request(index: int, dtype=np.float64) -> np.ndarray:
        # Field ``index`` of every batch row, one per request.
        values = np.array([row[index] for row in batches], dtype)
        return np.repeat(values, sizes)[order]

    start, finish, epi, ent, thr = (per_request(i) for i in range(4, 9))
    tenant = cols.tenant_index[rid]
    runtime = finish - cols.arrivals[rid]
    entropy = ent * cols.difficulty[rid]
    if np.any(epi <= 0):
        raise ValueError("energy must be positive")
    if np.any(runtime < 0):
        raise ValueError("runtime must be non-negative")
    requirements = [t.requirement for t in cols.tenants]
    imp = np.array([r.imperceptible_s for r in requirements], np.float64)
    unu = np.array([r.unusable_s for r in requirements], np.float64)
    # Background (inf - inf) and real-time (zero) spans only feed
    # lanes the branches below never select.
    with np.errstate(invalid="ignore", divide="ignore"):
        span = (unu - imp)[tenant]
        imp, unu = imp[tenant], unu[tenant]
        tolerable = 1.0 - (runtime - imp) / span
    soc_time = np.where(
        runtime <= imp, 1.0, np.where(runtime >= unu, 0.0, tolerable)
    )
    soc_accuracy = soc_accuracy_vec(entropy, thr)
    columns = _request_columns(cols, rid)
    columns.update(
        platform=tuple(per_request(1, object).tolist()),
        level=tuple(per_request(2, object).tolist()),
        batch=tuple(per_request(3, object).tolist()),
        start_s=tuple(start.tolist()),
        finish_s=tuple(finish.tolist()),
        latency_s=tuple(runtime.tolist()),
        deadline_hit=tuple((finish <= cols.deadlines[rid]).tolist()),
        entropy=tuple(entropy.tolist()),
        soc=tuple((soc_time * soc_accuracy / epi).tolist()),
        soc_time=tuple(soc_time.tolist()),
        soc_accuracy=tuple(soc_accuracy.tolist()),
        energy_per_item_j=tuple(epi.tolist()),
    )
    return columns


def _rejected_columns(cols: ArrivalColumns, rows: List[tuple]) -> dict:
    """The rejected records in rid order, one per reject row."""
    rejects = sorted(  # the reason by key: an outage reject has an origin
        (row[6][0], row[2][row[1].index("reason")])
        for row in rows
        if row[0] == "reject"
    )
    rids, reasons = zip(*rejects) if rejects else ((), ())
    columns = _request_columns(cols, np.array(rids, np.int64))
    columns["reason"] = reasons
    return columns


def run_columnar(
    router,
    loads: Sequence[TenantLoad],
    faults=None,
    controller=None,
) -> RouterReport:
    """Serve one run of ``router`` (see :meth:`RequestRouter.run` for
    ``faults`` and ``controller``)."""
    config = router.config
    if faults is not None:
        unknown = sorted(set(faults.platforms) - set(router.deployments))
        if unknown:
            raise ValueError(
                "fault trace names unknown platforms %s (fleet: %s)"
                % (", ".join(unknown), ", ".join(router.deployments))
            )
    chaos = faults is not None
    resilience = config.resilience
    # The event log, as the ledger's rows.
    rows: List[tuple] = []
    append = rows.append
    # The loop clock; engine relays read it when they fire.
    now = 0.0

    def relay(kind, platform, **detail):
        append(_row(kind, now, None, platform, (), **detail))

    unsubscribe = router._subscribe_engines(relay)
    try:
        states = router._build_states(lazy=controller is not None)
        cols = ArrivalColumns(loads)
        n = cols.n
        arrivals = cols.arrivals_list
        has_deadline = cols.has_deadline_list

        # Per-rid requirement columns: one list index per arrival
        # instead of tenant-index chasing (fancy indexing of the
        # float64 columns converts bit-identically).
        requirements = [tenant.requirement for tenant in cols.tenants]

        def per_rid(values):
            return np.asarray(values, dtype=np.float64)[
                cols.tenant_index
            ].tolist()

        imp_r = per_rid([r.imperceptible_s for r in requirements])
        unu_r = per_rid([r.unusable_s for r in requirements])
        span_r = per_rid(
            [r.unusable_s - r.imperceptible_s for r in requirements]
        )

        ps = [
            _P(index, name, state, cols.difficulty,
               state.breaker if chaos else None)
            for index, (name, state) in enumerate(states.items())
        ]
        by_name = {p.name: p for p in ps}

        fifo = config.policy == "fifo"
        queue_limit = config.queue_limit
        degrade_admission = config.degrade_on_admission and config.degradation
        retry_policy = RetryPolicy(
            limit=config.retry_limit,
            backoff_s=config.retry_backoff_s,
            growth=config.retry_backoff_growth,
        )
        res = _Resilience()

        # Queue ordering: the SoC policy's sort key is (-priority,
        # deadline, rid) -- a *total* order (rid breaks every tie), so
        # sorting by each rid's rank along it is equivalent.  The rank
        # vector is one lexsort over the columns; when it comes out as
        # the identity (single tenant, or any mix whose priority order
        # coincides with arrival order), queue sorts collapse to plain
        # integer sorts.
        sort_key = None
        if not fifo and n:
            neg_priority = np.array(
                [-tenant.priority for tenant in cols.tenants],
                dtype=np.int64,
            )[cols.tenant_index]
            idx = np.arange(n)
            order = np.lexsort((idx, cols.deadlines, neg_priority))
            if not np.array_equal(order, idx):
                rank = np.empty(n, dtype=np.int64)
                rank[order] = idx
                sort_key = rank.tolist().__getitem__

        tenant_names = [tenant.name for tenant in cols.tenants]
        tenant_of = [tenant_names[index] for index in cols.tenant_index_list]

        # The heap: (time_s, seq, kind, payload) tuples, sequence
        # numbers continuing after the arrivals' 0..n-1.  The fault
        # trace and the first control tick are pushed up front.
        dyn: List[tuple] = []
        dyn_seq = itertools.count(n).__next__
        if chaos:
            for fault in faults:
                heappush(dyn, (fault.time_s, dyn_seq(), _FAULT, fault))
        last_arrival_s = arrivals[n - 1] if n else 0.0
        if controller is not None:
            controller.begin(states, 0.0)
            if controller.tick_s <= last_arrival_s:
                heappush(dyn, (controller.tick_s, dyn_seq(), _TICK, None))

        completed_rows: List[tuple] = []

        def admit(rid, now):
            """Admission: bounded queues and (health-aware) platform
            availability, the best open platform at its current rung
            by predicted SoC (or latency under FIFO), then the
            deadline rescue.  Returns ``(platform, level, predicted
            soc, predicted latency, reason)``, the platform None on a
            reject.  The -inf/+inf seeds make the first open platform
            win its comparison (scores are finite and non-negative)."""
            imp = imp_r[rid]
            unu = unu_r[rid]
            span = span_r[rid]
            best = None
            best_st = 0.0
            best_value = -_INF
            best_latency = _INF
            for p in ps:
                queued = len(p.queue)
                if queued >= queue_limit:
                    continue
                if p.gated and not p.state.available(now):
                    continue
                column = p.cur_sa
                if column is None:
                    column = p.load()
                capacity = p.cur_bl
                exec_s = p.cur_el
                wait = p.state.busy_until - now
                if wait < 0.0:
                    wait = 0.0
                assembly = 0.0 if (queued + 1) % capacity == 0 else p.ft
                latency = (
                    wait + (queued // capacity) * exec_s + assembly + exec_s
                )
                if latency <= imp:
                    st = 1.0
                elif latency >= unu:
                    st = 0.0
                else:
                    st = 1.0 - (latency - imp) / span
                value = st * column[rid] / p.cur_epi
                if fifo:
                    pick = latency < best_latency
                else:
                    pick = value > best_value or (
                        value == best_value and latency < best_latency
                    )
                if pick:
                    best = p
                    best_value = value
                    best_latency = latency
                    best_st = st
            if best is None:
                return None, 0, 0.0, 0.0, "saturated"
            if best_st > 0.0 or not has_deadline[rid]:
                return best, best.level, best_value, best_latency, "ok"
            if degrade_admission:
                return rescue(rid, now, imp, unu, span)
            return None, 0, 0.0, 0.0, "infeasible"

        def rescue(rid, now, imp, unu, span):
            """The deadline rescue: escalate one platform's ladder to
            the shallowest feasible deeper rung, or reject as
            infeasible.  Each open platform offers its shallowest
            feasible deeper level; the SoC order picks the winner.
            Only runs with degradation on rescue, so every platform's
            controller may move."""
            found = None
            found_level = 0
            found_value = found_latency = 0.0
            for p in ps:
                queued = len(p.queue)
                if queued >= queue_limit:
                    continue
                if p.gated and not p.state.available(now):
                    continue
                wait = p.state.busy_until - now
                if wait < 0.0:
                    wait = 0.0
                # The depth is read once: a lazy level may truncate
                # the ladder mid-scan, and deeper levels then clamp.
                for level in range(p.level + 1, len(p.state.ladder)):
                    _, capacity, exec_s, _, epi, entropy = p.rung(level)
                    assembly = 0.0 if (queued + 1) % capacity == 0 else p.ft
                    latency = (
                        wait + (queued // capacity) * exec_s + assembly
                        + exec_s
                    )
                    if latency <= imp:
                        st = 1.0
                    elif latency >= unu:
                        st = 0.0
                    else:
                        st = 1.0 - (latency - imp) / span
                    if st > 0.0:
                        value = st * p.column(entropy)[rid] / epi
                        if (
                            found is None
                            or value > found_value
                            or (
                                value == found_value
                                and latency < found_latency
                            )
                        ):
                            found = p
                            found_level = level
                            found_value = value
                            found_latency = latency
                        break
            if found is None:
                return None, 0, 0.0, 0.0, "infeasible"
            found.ctrl.escalate_to(found_level)
            found.set_level(found.ctrl.level)
            return found, found_level, found_value, found_latency, "ok-degraded"

        def try_dispatch(
            p: _P,
            now: float,
            arrivals=arrivals,
            sort_key=sort_key,
            dyn=dyn,
            dyn_seq=dyn_seq,
            heappush=heappush,
            append=append,
        ) -> None:
            """Launch while nothing is in flight (an event popping at
            a batch's exact finish instant must not launch over it),
            the platform is available and the queue satisfies the
            flush policy (full batch or head timeout); otherwise arm
            a flush timer."""
            queue = p.queue
            state = p.state
            while state.inflight is None and queue:
                if p.gated and not state.available(now):
                    # Down, or breaker open/probing: hold the queue.
                    # A probe or restore event will wake it up.
                    return
                if p.cur_sa is None:
                    p.load()
                if p.dirty:
                    if sort_key is None:
                        queue.sort()
                    else:
                        queue.sort(key=sort_key)
                    p.dirty = False
                capacity = p.cur_bl
                head_arrival = arrivals[queue[0]]
                if len(queue) < capacity and now < head_arrival + p.ft:
                    flush_at = head_arrival + p.ft
                    pending = state.pending_flush_at
                    if pending is None or flush_at < pending:
                        state.pending_flush_at = flush_at
                        heappush(dyn, (flush_at, dyn_seq(), _FLUSH, p.index))
                    return
                level, _, exec_s, energy, epi, entropy = p.cur
                queued = len(queue)
                take = capacity if queued > capacity else queued
                rids = tuple(queue[:take])
                del queue[:take]
                finish = now + exec_s
                state.busy_until = finish
                state.batches += 1
                state.level_sum += level
                state.inflight = (
                    rids, level, now, finish, exec_s, energy, epi, entropy,
                    take,
                )
                if chaos:
                    launch_faults(p, now)
                heappush(dyn, (finish, dyn_seq(), _FREE, p.index))
                append(("dispatch", _DISPATCH_KEYS,
                        (take, capacity, finish, level), now, None, p.name,
                        rids))
                # Degradation reacts to the *standing* queue left
                # behind, not the work already committed.
                queued_batches = -(-len(queue) // capacity)
                move = p.ctrl.observe(queued_batches * exec_s)
                if move is not None:
                    p.set_level(p.ctrl.level)
                    append((move, _CAUSE_KEYS, ("backlog", p.ctrl.level),
                            now, None, p.name, ()))

        # -- the rare handlers ---------------------------------------
        def gate(p: _P, now: float) -> None:
            state = p.state
            p.gated = resilience and not (
                state.health.up and state.breaker.state(now) == "closed"
            )

        def breaker_move(p: _P, move, now: float) -> None:
            if move is not None:
                append(_row(move, now, platform=p.name))
                gate(p, now)

        def launch_faults(p: _P, now: float) -> None:
            """A launch on a fault-injected run: a health-blind launch
            onto a dead platform, or one an armed transient dooms,
            fails at its finish; the breaker notes the departure."""
            state = p.state
            p.will_fail = False
            if not state.health.up:
                p.will_fail = True
            elif state.transient_pending > 0:
                state.transient_pending -= 1
                p.will_fail = True
            if p.breaker is not None:
                breaker_move(p, p.breaker.on_dispatch(now), now)

        def fail_batch(p: _P, batch: tuple, now: float) -> None:
            """A launched batch did not complete: account it, trip the
            breaker, and walk every member through retry-or-reject."""
            p.state.failed_batches += 1
            res.batch_failures += 1
            rids = batch[0]
            append(_row(
                "batch_failed", now, platform=p.name, request_ids=rids,
                level=batch[1],
            ))
            if p.breaker is not None:
                move = p.breaker.on_failure(now)
                breaker_move(p, move, now)
                if move == "breaker_open":
                    p.lapse_at = now + config.breaker_cooldown_s
                    heappush(dyn, (p.lapse_at, dyn_seq(), _PROBE, p.index))
            for rid in rids:
                attempt = res.attempts.get(rid, 0) + 1
                res.attempts[rid] = attempt
                if not resilience:
                    append(("reject", _REASON_KEYS, ("failed",), now,
                            tenant_of[rid], None, (rid,)))
                    continue
                delay = retry_policy.backoff_for(
                    attempt, now, float(cols.deadlines[rid])
                )
                if delay is None:
                    append(("reject", _REASON_KEYS, ("retries-exhausted",),
                            now, tenant_of[rid], None, (rid,)))
                    continue
                res.retries += 1
                append(_row(
                    "retry", now, tenant_of[rid], None, (rid,),
                    attempt=attempt, backoff_s=delay,
                ))
                heappush(dyn, (now + delay, dyn_seq(), _RETRY, rid))

        def on_fault(fault, now: float) -> None:
            """Apply one injected fault to its platform's health and
            act on the consequence."""
            p = by_name[fault.platform]
            state = p.state
            consequence = state.health.apply(fault)
            res.faults_injected += 1
            append(_row(
                "fault", now, platform=fault.platform,
                fault_kind=fault.kind, episode=fault.episode,
                sm_fail_fraction=fault.sm_fail_fraction,
                relative_frequency=fault.relative_frequency,
                bandwidth_scale=fault.bandwidth_scale,
            ))
            gate(p, now)
            if consequence == "down":
                res.outages += 1
                res.outage_started[p.name] = now
                on_outage(p, now)
            elif consequence == "up":
                started = res.outage_started.pop(p.name, None)
                if started is not None:
                    res.mttr_episodes.append(now - started)
                # Surviving queue (health-blind mode) gets served again.
                try_dispatch(p, now)
            elif consequence == "recompile":
                router._retarget_ladder(state)
                p.refresh()
            elif consequence == "transient":
                state.transient_pending += 1
            else:  # "rescale": a throttle moved every rung's numbers
                p.refresh()

        def on_outage(p: _P, now: float) -> None:
            """The platform just died.  Resilient mode evacuates its
            work across the surviving fleet (the evacuated batch's
            free event stays on the heap, stale); health-blind mode
            lets the batch in flight time out and fail."""
            state = p.state
            if not resilience:
                if state.inflight is not None:
                    p.will_fail = True
                return
            victims = []
            if state.inflight is not None:
                victims.extend(state.inflight[0])
                state.inflight = None
            victims.extend(p.queue)
            del p.queue[:]
            state.busy_until = now
            for rid in sorted(victims):
                target, level, _, _, reason = admit(rid, now)
                if target is None:
                    append(_row(
                        "reject", now, tenant_of[rid], None, (rid,),
                        reason="outage", origin=p.name,
                    ))
                    continue
                res.failovers += 1
                res.rescued.add(rid)
                if reason == "ok-degraded":
                    append(_row(
                        "degrade", now, tenant_of[rid], target.name, (rid,),
                        cause="failover", level=target.ctrl.level,
                    ))
                target.queue.append(rid)
                target.dirty = True
                append(_row(
                    "failover", now, tenant_of[rid], target.name, (rid,),
                    origin=p.name, level=level,
                ))
                try_dispatch(target, now)

        def on_tick(now: float) -> None:
            """One control-plane tick over the live platform states:
            mirror its actions into the log, wake every platform it
            changed, and re-arm the next tick until the last arrival
            is behind us."""
            outcome = controller.tick(now, states)
            append(_row(
                "control_tick", now, observed_rps=outcome.observed_rps,
                forecast_rps=outcome.forecast_rps,
                level=outcome.target_level,
            ))
            for platform, level, batch in outcome.prewarmed:
                append(_row(
                    "prewarm", now, platform=platform, level=level,
                    batch=batch,
                ))
            for platform, _old, level in outcome.degraded:
                append(_row(
                    "degrade", now, platform=platform, cause="forecast",
                    level=level,
                ))
            for platform, relative_frequency in outcome.dvfs_moves:
                append(_row(
                    "dvfs", now, platform=platform,
                    relative_frequency=relative_frequency,
                ))
            # Escalations move levels and DVFS moves rescale rungs.
            for p in ps:
                p.refresh()
            for name in sorted(outcome.changed_platforms):
                try_dispatch(by_name[name], now)
            next_tick = now + controller.tick_s
            if next_tick <= last_arrival_s:
                heappush(dyn, (next_tick, dyn_seq(), _TICK, None))

        # -- the merged event loop ----------------------------------
        # Two pre-ordered streams: the arrival columns (seqs 0..n-1)
        # and the heap (n..).  At equal timestamps the lowest sequence
        # number wins, so an arrival beats every heap event.  A retry
        # re-enters admission like an arrival, but is not a new
        # arrival: it neither reaches the control plane nor starts a
        # saturation burst.
        ai = 0
        while True:
            td = dyn[0][0] if dyn else _INF
            ta = arrivals[ai] if ai < n else _INF
            if ta <= td:
                if ta == _INF:
                    break
                now = ta
                rid = ai
                ai += 1
                if controller is not None:
                    controller.observe_arrival(tenant_of[rid], now)
            else:
                now, _seq, kind, payload = heappop(dyn)
                if kind == _FREE:
                    p = ps[payload]
                    state = p.state
                    batch = state.inflight
                    # A stale free (its batch evacuated by an outage)
                    # finds a later batch, or none, in flight.
                    if batch is not None and batch[3] <= now:
                        state.inflight = None
                        if p.will_fail:
                            fail_batch(p, batch, now)
                        else:
                            (rids, level, start, finish, exec_s, energy,
                             epi, entropy, take) = batch
                            state.requests_served += take
                            state.busy_s += exec_s
                            state.energy_j += energy
                            if p.breaker is not None:
                                breaker_move(
                                    p, p.breaker.on_success(now), now
                                )
                            completed_rows.append(
                                (rids, p.name, level, take, start, finish,
                                 epi, entropy, p.thr)
                            )
                            append(("complete", _LEVEL_KEYS, (level,),
                                    finish, None, p.name, rids))
                    try_dispatch(p, now)
                    continue
                if kind == _FLUSH:
                    p = ps[payload]
                    state = p.state
                    pending = state.pending_flush_at
                    if pending is not None and pending <= now:
                        state.pending_flush_at = None
                    try_dispatch(p, now)
                    continue
                if kind == _FAULT:
                    on_fault(payload, now)
                    continue
                if kind == _PROBE:
                    p = ps[payload]
                    p.lapse_at = _INF
                    try_dispatch(p, now)
                    continue
                if kind == _TICK:
                    on_tick(now)
                    continue
                rid = payload  # _RETRY
                td = None
            p, level, value, latency, reason = admit(rid, now)
            if p is None:
                append(("reject", _REASON_KEYS, (reason,), now,
                        tenant_of[rid], None, (rid,)))
                if reason == "saturated" and td is not None:
                    # No platform can take a request and nothing can
                    # open one before the next heap event -- or before
                    # an open breaker lapses to half-open, which the
                    # clock alone does: the whole burst of arrivals up
                    # to that instant is rejected in one binary search.
                    end = bisect_right(arrivals, td, ai, n)
                    if chaos:
                        lapse = min([q.lapse_at for q in ps])
                        if lapse <= td:
                            end = bisect_left(arrivals, lapse, ai, end)
                    if end > ai:
                        rows.extend(
                            ("reject", _REASON_KEYS, ("saturated",),
                             arrivals[rid], tenant_of[rid], None, (rid,))
                            for rid in range(ai, end)
                        )
                        if controller is not None:
                            for rid in range(ai, end):
                                controller.observe_arrival(
                                    tenant_of[rid], arrivals[rid]
                                )
                        now = arrivals[end - 1]
                        ai = end
                continue
            if reason == "ok-degraded":
                append(("degrade", _CAUSE_KEYS, ("admission", p.ctrl.level),
                        now, tenant_of[rid], p.name, (rid,)))
            p.queue.append(rid)
            p.dirty = True
            append(("enqueue", _ENQUEUE_KEYS, (level, latency, value), now,
                    tenant_of[rid], p.name, (rid,)))
            if p.state.inflight is None:
                try_dispatch(p, now)

        # Zero-loss backstop: any request still queued (or somehow in
        # flight) when the heap drains is explicitly rejected --
        # platforms in name order, stranded requests in rid order.
        for p in ps:
            state = p.state
            stranded: List[int] = []
            if state.inflight is not None:
                stranded.extend(state.inflight[0])
                state.inflight = None
            stranded.extend(p.queue)
            del p.queue[:]
            for rid in sorted(stranded):
                append(("reject", _REASON_KEYS, ("stranded",), now,
                        tenant_of[rid], p.name, (rid,)))
    finally:
        unsubscribe()

    horizon = max([0.0, last_arrival_s] + [row[5] for row in completed_rows])
    completed = _completed_columns(cols, completed_rows)
    return RouterReport(
        ledger=Ledger(completed, _rejected_columns(cols, rows), rows),
        platforms=router._platform_stats(states, horizon),
        horizon_s=horizon,
        resilience=(
            res.stats(
                completed["rid"],
                [state.breaker for state in states.values()
                 if state.breaker is not None],
            )
            if chaos
            else None
        ),
        control=(
            controller.report_section() if controller is not None else None
        ),
    )
