"""The columnar fast loop behind :meth:`RequestRouter.run`.

:meth:`repro.serving.router.RequestRouter.run` sends every *plain* run
here: no fault trace, no control plane.  Everything else goes through
the discrete-event loop,
:meth:`~repro.serving.router.RequestRouter._run_events`.  A plain run
cannot fail a batch, trip a breaker or rescale a rung, so this loop
carries none of that machinery -- and, like the event loop, no
observability code: an instrumented plain run runs here too, and
``RequestRouter.run`` derives its spans and metrics from the finished
report.

The event loop is object-per-event: every arrival materializes a
``Request``, every admission scores candidates through dataclass
constructors, and the report is assembled eagerly.  This loop replays
the *same* simulation over column-major state --
:class:`repro.serving.request.ArrivalColumns` for the request stream,
a ``heapq`` of ``(time_s, seq, kind, payload)`` tuples for the dynamic
events (batch frees and flush timers), plain-Python mirrors of the
per-platform hot fields, and per-(platform, rung) accuracy columns
precomputed across the whole request vector with
:func:`soc_accuracy_vec`.  Requests stay virtual (integer row ids),
events are compact kind-coded rows expanded lazily, per-request SoC
breakdowns are deferred, and whole saturation bursts -- every arrival
landing before the next dynamic event while all queues are full --
are rejected in one ``bisect_right`` instead of per-request admission.
The returned :class:`VecRouterReport` materializes ``completed`` /
``rejected`` / ``events`` on first access.

Equivalence is the contract, not a goal: every float is produced by
the event loop's exact expression (same operand order, same
association), every event is emitted at the event loop's exact
program point, and the merged arrival/dynamic streams replicate the
event heap's ``(time_s, push_seq)`` total order (arrivals take
sequence numbers ``0..n-1``, dynamic events everything after --
exactly how the event loop pushes them).  Platform states come from
``router._build_states``, which memoizes each deployment's eager
ladder across runs, and the real ``DegradationController`` walks each
ladder.  Engine activity during that build is relayed through
``router._subscribe_engines`` exactly as the event loop relays it.
``RouterReport.fingerprint()`` is therefore bit-identical to the event
loop's on every plain run -- asserted by
``tests/serving/test_backend_equivalence.py``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.satisfaction import SoCBreakdown
from repro.serving.events import EventLog, RouterEvent
from repro.serving.report import (
    CompletedRequest,
    RejectedRequest,
    RouterReport,
    event_row,
)
from repro.serving.request import ArrivalColumns, TenantLoad

__all__ = ["run_columnar", "soc_accuracy_vec", "VecRouterReport"]

_INF = math.inf

# Dynamic-event kind codes (arrivals ride their own pre-sorted
# columns; only these two flow through the heap).
_FREE = 0
_FLUSH = 1

# Compact event-row codes.  The hot path appends one flat tuple per
# event; :meth:`_VecRaw.loop_rows` expands them into events of the
# exact shape the event loop records.
_E_ENQ = 0  # (code, t, rid, pidx, level, soc, latency)
_E_REJ = 1  # (code, t, rid, reason[, pidx])
_E_DISP = 2  # (code, t, pidx, rids, level, take, capacity, finish)
_E_COMP = 3  # (code, t, pidx, rids, level)
_E_MOVE = 4  # (code, t, pidx, move, level)        cause="backlog"
_E_ADEG = 5  # (code, t, rid, pidx, level)         cause="admission"
_E_REJR = 6  # (code, first_rid, end_rid)          a saturation burst

# Sorted detail keys of each event shape the loop writes.
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


class _P:
    """Hot per-platform mirror of a ``PlatformState``.

    The state object stays authoritative for everything the report
    reads (cumulative accounting, the degradation controller); this
    mirror caches what the inner loop touches per arrival -- the
    current level's (batch, exec, energy-per-item, accuracy-column)
    scalars, the busy horizon, and the queue as a list of row ids.
    Rungs cannot change during a plain run, so the per-rung columns
    are read once.
    """

    __slots__ = (
        "index",
        "name",
        "state",
        "ctrl",
        "level",
        "busy_until",
        "queue",
        "dirty",
        "pending_flush_at",
        "ft",
        "thr",
        "n_levels",
        "exec_s",
        "batch",
        "energy",
        "epi",
        "ent",
        "sa",
        "cur_bl",
        "cur_el",
        "cur_epi",
        "cur_sa",
        "inflight",
    )

    def __init__(self, index: int, name: str, state) -> None:
        self.index = index
        self.name = name
        self.state = state
        self.ctrl = state.controller
        self.busy_until = 0.0
        self.queue: List[int] = []
        self.dirty = False
        self.pending_flush_at: Optional[float] = None
        self.ft = state.flush_timeout_s
        self.thr = state.deployment.entropy_threshold
        self.inflight: Optional[tuple] = None
        ladder = state.ladder
        rungs = [ladder[level] for level in range(len(ladder))]
        self.n_levels = len(rungs)
        self.exec_s = [rung.exec_time_s for rung in rungs]
        self.batch = [rung.batch for rung in rungs]
        self.energy = [rung.energy_j for rung in rungs]
        self.epi = [rung.energy_per_item_j for rung in rungs]
        self.ent = [rung.entropy for rung in rungs]
        #: Accuracy column per level, filled on first use.
        self.sa: List[Optional[List[float]]] = [None] * self.n_levels
        self.set_level(self.ctrl.level)

    def set_level(self, level: int) -> None:
        """Sync the current-level scalar caches (after every
        controller move or admission escalation)."""
        self.level = level
        self.cur_bl = self.batch[level]
        self.cur_el = self.exec_s[level]
        self.cur_epi = self.epi[level]
        self.cur_sa = self.sa[level]


class _VecRaw:
    """Deferred report ingredients of one columnar run.

    ``relay`` holds the engine events relayed while the platform
    states were built; they precede every loop row in the log.  The
    compact rows expand on demand into the report's columns and event
    rows, and the lazy ``completed`` / ``rejected`` / ``events`` lists
    are built from those.
    """

    def __init__(self, relay, cols, flat, completed_rows, names) -> None:
        self.relay = relay
        self.cols = cols
        self.flat = flat
        self.completed_rows = completed_rows
        self.names = names

    def _per_rid(self, rid: np.ndarray) -> Dict[str, list]:
        """The columns every terminal record has, for rows ``rid``."""
        tenants = self.cols.tenants
        index = self.cols.tenant_index[rid]

        def gather(values: list) -> list:
            return np.array(values, object)[index].tolist()

        return {
            "rid": rid.tolist(),
            "tenant": gather([tenant.name for tenant in tenants]),
            "priority": gather([tenant.priority for tenant in tenants]),
            "arrival_s": self.cols.arrivals[rid].tolist(),
        }

    @cached_property
    def completed_columns(self) -> Dict[str, list]:
        """The completed records in rid order.  Every float follows
        :func:`repro.core.satisfaction.soc`'s exact operation order,
        element-wise over float64 columns, and the same inputs raise
        the same errors."""
        cols = self.cols
        rows = self.completed_rows
        sizes = [len(row[0]) for row in rows]
        rid = np.fromiter(
            itertools.chain.from_iterable(row[0] for row in rows), np.int64
        )
        order = np.argsort(rid, kind="stable")
        rid = rid[order]

        def per_request(index: int, dtype=np.float64) -> np.ndarray:
            # Field ``index`` of every batch row, one per request.
            values = np.array([row[index] for row in rows], dtype)
            return np.repeat(values, sizes)[order]

        # Batch rows: (rids, name, level, take, start, finish, epi,
        # ent, thr).
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
        columns = self._per_rid(rid)
        columns.update(
            platform=per_request(1, object).tolist(),
            level=per_request(2, object).tolist(),
            batch=per_request(3, object).tolist(),
            start_s=start.tolist(),
            finish_s=finish.tolist(),
            latency_s=runtime.tolist(),
            deadline_hit=(finish <= cols.deadlines[rid]).tolist(),
            entropy=entropy.tolist(),
            soc=(soc_time * soc_accuracy / epi).tolist(),
            soc_time=soc_time.tolist(),
            soc_accuracy=soc_accuracy.tolist(),
            energy_per_item_j=epi.tolist(),
        )
        return columns

    @cached_property
    def rejected_columns(self) -> Dict[str, list]:
        """The rejected records in rid order, one per reject event."""
        rejects = sorted(
            (row[6][0], row[2][0]) for row in self.loop_rows
            if row[0] == "reject"
        )
        rids, reasons = zip(*rejects) if rejects else ((), ())
        columns = self._per_rid(np.array(rids, np.int64))
        columns["reason"] = list(reasons)
        return columns

    @cached_property
    def loop_rows(self) -> List[tuple]:
        """The loop's events, in log order, as
        :func:`repro.serving.report.event_row` rows."""
        tenant_of = [
            self.cols.tenants[index].name
            for index in self.cols.tenant_index_list
        ]
        names = self.names
        arrivals = self.cols.arrivals_list
        out: List[tuple] = []
        append = out.append
        for row in self.flat:
            code = row[0]
            if code == _E_ENQ:
                _, t, rid, pidx, level, value, latency = row
                append(("enqueue", _ENQUEUE_KEYS, (level, latency, value),
                        t, tenant_of[rid], names[pidx], (rid,)))
            elif code == _E_REJ:
                platform = names[row[4]] if len(row) > 4 else None
                append(("reject", _REASON_KEYS, (row[3],), row[1],
                        tenant_of[row[2]], platform, (row[2],)))
            elif code == _E_REJR:
                out.extend(
                    ("reject", _REASON_KEYS, ("saturated",), arrivals[rid],
                     tenant_of[rid], None, (rid,))
                    for rid in range(row[1], row[2])
                )
            elif code == _E_DISP:
                _, t, pidx, rids, level, take, capacity, finish = row
                append(("dispatch", _DISPATCH_KEYS,
                        (take, capacity, finish, level), t, None,
                        names[pidx], rids))
            elif code == _E_COMP:
                _, t, pidx, rids, level = row
                append(("complete", _LEVEL_KEYS, (level,), t, None,
                        names[pidx], rids))
            elif code == _E_MOVE:
                _, t, pidx, move, level = row
                append((move, _CAUSE_KEYS, ("backlog", level), t, None,
                        names[pidx], ()))
            else:  # _E_ADEG
                _, t, rid, pidx, level = row
                append(("degrade", _CAUSE_KEYS, ("admission", level), t,
                        tenant_of[rid], names[pidx], (rid,)))
        return out

    @cached_property
    def event_counts(self) -> Dict[str, int]:
        counts = Counter(event.kind for event in self.relay)
        counts.update(row[0] for row in self.loop_rows)
        return {kind: counts[kind] for kind in EventLog.KINDS}

    def completed(self) -> List[CompletedRequest]:
        request_at = self.cols.request_at
        return [
            CompletedRequest(
                request_at(rid), platform, level, batch, start, finish,
                entropy, SoCBreakdown(soc_time, soc_accuracy, energy, value),
            )
            for (
                rid, platform, level, batch, start, finish, entropy,
                soc_time, soc_accuracy, energy, value,
            ) in zip(*map(self.completed_columns.get, (
                "rid", "platform", "level", "batch", "start_s", "finish_s",
                "entropy", "soc_time", "soc_accuracy", "energy_per_item_j",
                "soc",
            )))
        ]

    def rejected(self) -> List[RejectedRequest]:
        columns = self.rejected_columns
        return [
            RejectedRequest(self.cols.request_at(rid), reason)
            for rid, reason in zip(columns["rid"], columns["reason"])
        ]

    def events(self) -> EventLog:
        # The relay is numbered from 0 already; loop rows follow it.
        out: List[RouterEvent] = list(self.relay)
        out.extend(
            RouterEvent(seq, time_s, kind, tenant, platform, ids,
                        dict(zip(keys, values)))
            for seq, (kind, keys, values, time_s, tenant, platform, ids)
            in enumerate(self.loop_rows, len(out))
        )
        return EventLog(out)


class _LazyField:
    """Non-data descriptor: materializes one deferred report field on
    first access and caches it in the instance dict (which then
    shadows the descriptor)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        value = getattr(report._vec_raw, self.name)()
        report.__dict__[self.name] = value
        return value


class VecRouterReport(RouterReport):
    """A ``RouterReport`` whose per-request lists and event log are
    materialized lazily from the columnar loop's raw rows.

    Everything a fleet-level consumer typically reads first
    (``platforms``, ``horizon_s``) is eager; ``completed`` /
    ``rejected`` / ``events`` materialize on first access and are
    bit-identical to the event loop's.  Counts, aggregates,
    ``to_dict(include_events=False)`` and ``fingerprint()`` read the
    raw rows as columns instead and build no per-request object --
    until a lazy field is built, which from then on is what they
    read.  Constructed with
    keyword arguments only (``dataclasses.replace`` and
    :meth:`RouterReport.merge` keep working: without ``_vec_raw`` the
    class behaves exactly like its dataclass base).
    """

    completed = _LazyField("completed")
    rejected = _LazyField("rejected")
    events = _LazyField("events")

    def __init__(self, *args, _vec_raw: Optional[_VecRaw] = None, **kwargs):
        if _vec_raw is None:
            super().__init__(*args, **kwargs)
            return
        self._vec_raw = _vec_raw
        self.platforms = kwargs.get("platforms", [])
        self.horizon_s = kwargs.get("horizon_s", 0.0)
        self.resilience = None
        self.obs = None
        self.control = None
        self.merged_from = None

    # A built lazy field is authoritative: once ``completed``,
    # ``rejected`` or ``events`` exists, it is read as on any report.
    def _completed_columns(self) -> Dict[str, list]:
        if "completed" in self.__dict__:
            return super()._completed_columns()
        return self._vec_raw.completed_columns

    def _rejected_columns(self) -> Dict[str, list]:
        if "rejected" in self.__dict__:
            return super()._rejected_columns()
        return self._vec_raw.rejected_columns

    def _event_rows(self) -> Iterable[tuple]:
        if "events" in self.__dict__:
            return super()._event_rows()
        raw = self._vec_raw
        return itertools.chain(map(event_row, raw.relay), raw.loop_rows)

    def _event_counts(self) -> Dict[str, int]:
        if "events" in self.__dict__:
            return super()._event_counts()
        return dict(self._vec_raw.event_counts)

    def __getstate__(self):
        # Force materialization before crossing a process boundary
        # (spawned shard workers pickle their reports back).
        raw = self.__dict__.get("_vec_raw")
        if raw is not None:
            _ = (self.completed, self.rejected, self.events)
        state = dict(self.__dict__)
        state.pop("_vec_raw", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def run_columnar(router, loads: Sequence[TenantLoad]) -> VecRouterReport:
    """Serve a plain run (no faults or controller).

    Returns a report whose fingerprint is bit-identical to
    ``router._run_events(loads)``.
    """
    config = router.config
    # Engine hooks fire only while the states are built (every rung
    # is materialized up front and nothing recompiles mid-run), so
    # the relay is subscribed for the build alone and every relayed
    # event carries the build-time clock.
    relay = EventLog()
    unsubscribe = router._subscribe_engines(relay)
    try:
        states = router._build_states()
    finally:
        unsubscribe()
    flat: List[tuple] = []
    flat_append = flat.append
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
        _P(index, name, state)
        for index, (name, state) in enumerate(states.items())
    ]
    names = [p.name for p in ps]

    fifo = config.policy == "fifo"
    queue_limit = config.queue_limit
    degrade_admission = config.degrade_on_admission and config.degradation

    # Queue ordering: the event loop's SoC-policy sort key is
    # (-priority, deadline, rid) -- a *total* order (rid breaks
    # every tie), so sorting by each rid's rank along it is
    # equivalent.  The rank vector is one lexsort over the columns;
    # when it comes out as the identity (single tenant, or any mix
    # whose priority order coincides with arrival order), queue
    # sorts collapse to plain integer sorts.
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

    # The dynamic events' heap: (time_s, seq, kind, payload) tuples,
    # sequence numbers continuing after the arrivals' 0..n-1.
    dyn: List[tuple] = []
    dyn_seq = itertools.count(n).__next__

    completed_rows: List[tuple] = []
    now = 0.0

    def sa_fill(p: _P, level: int) -> List[float]:
        column = soc_accuracy_vec(
            p.ent[level] * cols.difficulty, p.thr
        ).tolist()
        p.sa[level] = column
        if level == p.level:
            p.cur_sa = column
        return column

    def admit_tail(rid, now, imp, unu, span):
        """The deadline-rescue tail of admission: escalate one
        platform's ladder to the shallowest feasible deeper rung,
        or reject as infeasible."""
        if degrade_admission:
            rescue = None
            rescue_level = 0
            rescue_value = rescue_latency = 0.0
            for p in ps:
                queued = len(p.queue)
                if queued >= queue_limit:
                    continue
                if not p.ctrl.enabled:
                    continue
                wait = p.busy_until - now
                if wait < 0.0:
                    wait = 0.0
                for level in range(p.level + 1, p.n_levels):
                    capacity = p.batch[level]
                    exec_s = p.exec_s[level]
                    assembly = (
                        0.0 if (queued + 1) % capacity == 0 else p.ft
                    )
                    latency = (
                        wait
                        + (queued // capacity) * exec_s
                        + assembly
                        + exec_s
                    )
                    if latency <= imp:
                        st = 1.0
                    elif latency >= unu:
                        st = 0.0
                    else:
                        st = 1.0 - (latency - imp) / span
                    if st > 0.0:
                        # Shallowest feasible deeper rung per
                        # platform; winner by the SoC sort key.
                        column = p.sa[level]
                        if column is None:
                            column = sa_fill(p, level)
                        value = st * column[rid] / p.epi[level]
                        if (
                            rescue is None
                            or value > rescue_value
                            or (
                                value == rescue_value
                                and latency < rescue_latency
                            )
                        ):
                            rescue = p
                            rescue_level = level
                            rescue_value = value
                            rescue_latency = latency
                        break
            if rescue is not None:
                rescue.ctrl.escalate_to(rescue_level)
                rescue.set_level(rescue.ctrl.level)
                return (
                    rescue,
                    rescue_level,
                    rescue_latency,
                    rescue_value,
                    "ok-degraded",
                )
        return (None, 0, 0.0, 0.0, "infeasible")

    def try_dispatch(
        p: _P,
        now: float,
        arrivals=arrivals,
        sort_key=sort_key,
        dyn=dyn,
        dyn_seq=dyn_seq,
        heappush=heappush,
        flat_append=flat_append,
    ) -> None:
        """Twin of the event loop's ``_try_dispatch`` + ``_launch``:
        launch while nothing is in flight (an arrival or flush
        popping at a batch's exact finish instant must not launch
        over it) and the queue satisfies the flush policy;
        otherwise arm a flush timer."""
        queue = p.queue
        while p.inflight is None and queue:
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
                pending = p.pending_flush_at
                if pending is None or flush_at < pending:
                    p.pending_flush_at = flush_at
                    heappush(dyn, (flush_at, dyn_seq(), _FLUSH, p.index))
                return
            level = p.level
            exec_s = p.cur_el
            queued = len(queue)
            take = capacity if queued > capacity else queued
            rids = tuple(queue[:take])
            del queue[:take]
            finish = now + exec_s
            p.busy_until = finish
            state = p.state
            state.batches += 1
            state.level_sum += level
            p.inflight = (
                rids, level, now, finish, exec_s, p.energy[level],
                p.cur_epi, p.ent[level], take,
            )
            heappush(dyn, (finish, dyn_seq(), _FREE, p.index))
            flat_append(
                (_E_DISP, now, p.index, rids, level, take, capacity,
                 finish)
            )
            queued_batches = -(-len(queue) // capacity)
            move = p.ctrl.observe(queued_batches * exec_s)
            if move is not None:
                p.set_level(p.ctrl.level)
                flat_append((_E_MOVE, now, p.index, move, p.ctrl.level))

    # -- the merged event loop --------------------------------------
    # Two pre-ordered streams replace the event loop's single heap:
    # the arrival columns (seqs 0..n-1) and the dynamic heap (n..).
    # At equal timestamps the lowest sequence number wins, so an
    # arrival beats a dynamic event, exactly like the event loop's
    # (time_s, push_seq) tuples.
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
            # Admission, inlined: twin of ``AdmissionController
            # .admit`` + ``Dispatcher.choose``.  The -inf/+inf
            # seeds make the first open platform win its
            # comparison exactly like the event loop's
            # first-candidate pick (scores are finite and
            # non-negative).
            imp = imp_r[rid]
            unu = unu_r[rid]
            span = span_r[rid]
            best = None
            best_level = 0
            best_st = 0.0
            best_value = -_INF
            best_latency = _INF
            for p in ps:
                queued = len(p.queue)
                if queued >= queue_limit:
                    continue
                wait = p.busy_until - now
                if wait < 0.0:
                    wait = 0.0
                capacity = p.cur_bl
                exec_s = p.cur_el
                assembly = (
                    0.0 if (queued + 1) % capacity == 0 else p.ft
                )
                latency = (
                    wait + (queued // capacity) * exec_s
                    + assembly + exec_s
                )
                if latency <= imp:
                    st = 1.0
                elif latency >= unu:
                    st = 0.0
                else:
                    st = 1.0 - (latency - imp) / span
                column = p.cur_sa
                if column is None:
                    column = sa_fill(p, p.level)
                value = st * column[rid] / p.cur_epi
                if fifo:
                    pick = latency < best_latency
                else:
                    pick = value > best_value or (
                        value == best_value
                        and latency < best_latency
                    )
                if pick:
                    best = p
                    best_level = p.level
                    best_value = value
                    best_latency = latency
                    best_st = st
            if best is None:
                flat_append((_E_REJ, now, rid, "saturated"))
                # Every queue is full and nothing can drain one
                # before the next dynamic event: the whole burst
                # of arrivals up to (and at) that timestamp is
                # rejected in one binary search.  The expansion
                # back to per-request reject events is deferred
                # with the rest of the log.
                end = bisect_right(arrivals, td, ai, n)
                if end > ai:
                    flat_append((_E_REJR, ai, end))
                    ai = end
                continue
            if best_st > 0.0 or not has_deadline[rid]:
                p = best
                level = best_level
                latency = best_latency
                value = best_value
            else:
                p, level, latency, value, reason = admit_tail(
                    rid, now, imp, unu, span
                )
                if p is None:
                    flat_append((_E_REJ, now, rid, reason))
                    continue
                flat_append((_E_ADEG, now, rid, p.index, p.ctrl.level))
            p.queue.append(rid)
            p.dirty = True
            flat_append((_E_ENQ, now, rid, p.index, level, value, latency))
            if p.inflight is None:
                try_dispatch(p, now)
            continue
        time_s, _seq, kind, payload = heappop(dyn)
        now = time_s
        p = ps[payload]
        if kind == _FLUSH:
            pending = p.pending_flush_at
            if pending is not None and pending <= time_s:
                p.pending_flush_at = None
            try_dispatch(p, time_s)
            continue
        # _FREE: the batch in flight finished.  Launches wait for
        # an empty slot, so every free event belongs to its
        # platform's current batch: complete it, then keep the
        # platform busy.
        (rids, level, start, finish, exec_s, energy, epi, ent,
         take) = p.inflight
        p.inflight = None
        state = p.state
        state.requests_served += take
        state.busy_s += exec_s
        state.energy_j += energy
        completed_rows.append(
            (rids, p.name, level, take, start, finish, epi, ent, p.thr)
        )
        flat_append((_E_COMP, finish, p.index, rids, level))
        try_dispatch(p, time_s)

    # Zero-loss backstop, twin of ``_reject_stranded``: platforms
    # in name order, stranded requests in rid order.
    for p in ps:
        stranded: List[int] = []
        if p.inflight is not None:
            stranded.extend(p.inflight[0])
            p.inflight = None
        stranded.extend(p.queue)
        del p.queue[:]
        for rid in sorted(stranded):
            flat_append((_E_REJ, now, rid, "stranded", p.index))

    horizon = 0.0
    if completed_rows:
        horizon = max(horizon, max(row[5] for row in completed_rows))
    if n:
        horizon = max(horizon, arrivals[n - 1])
    return VecRouterReport(
        _vec_raw=_VecRaw(relay, cols, flat, completed_rows, names),
        platforms=router._platform_stats(states, horizon),
        horizon_s=horizon,
    )

