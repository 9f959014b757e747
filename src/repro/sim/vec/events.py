"""Struct-of-arrays event-queue primitives for the columnar router loop.

Two data structures back :mod:`repro.serving.vec_router`:

* :class:`SoAEventQueue` -- a binary min-heap whose entries live in
  parallel scalar columns (float64 times, sequence numbers, kind
  codes, payloads) instead of per-event tuples.  The key is
  ``(time_s, seq)`` with a strictly monotone push sequence, so its pop
  order is bit-identical to pushing the same ``(time_s, seq)`` pairs
  through ``heapq`` -- equal timestamps drain in push (FIFO) order.
  The columns are plain Python lists rather than ndarrays: the heap
  only ever sees scalar element access (a handful of live events, no
  bulk operations), and extracting a numpy scalar costs several times
  a list index, so the list layout wins at every realistic size.
* :class:`ArrivalColumns` -- the column-major twin of
  :func:`repro.serving.request.merge_loads`: every tenant trace's
  arrival/deadline/difficulty clocks live in float64 arrays sorted by
  the same total ``(arrival, tenant name, position)`` key, and request
  ids are row indices along that order.  ``Request`` objects are only
  materialized on demand (lazily, for reports), which is most of the
  fast path's win.

Float64 storage is exact for every clock that flows through here:
``float(np.float64(x))`` round-trips bit-identically, so pushing an
event-loop-computed time through the arrays and popping it back
cannot perturb the simulation -- property-tested in
``tests/sim/test_soa_events.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.request import Request, Tenant, TenantLoad

__all__ = ["SoAEventQueue", "ArrivalColumns"]

_INF = math.inf


class SoAEventQueue:
    """A ``(time_s, seq)``-keyed binary min-heap in parallel columns.

    ``push`` assigns each entry the next monotone sequence number
    (starting at ``first_seq``), exactly like the event loop's
    ``push_seq`` counter; ``pop`` returns plain-Python scalars.  The
    columns are Python lists (see the module docstring for why not
    ndarrays); they grow by ``append`` and shrink on pop.
    """

    __slots__ = (
        "_times",
        "_seqs",
        "_kinds",
        "_payloads",
        "_next_seq",
        "version",
    )

    def __init__(self, first_seq: int = 0, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(
                "capacity must be >= 1, got %r" % (capacity,)
            )
        self._times: List[float] = []
        self._seqs: List[int] = []
        self._kinds: List[int] = []
        self._payloads: List[int] = []
        self._next_seq = int(first_seq)
        #: Bumped on every mutation; lets a caller cache ``peek_time``
        #: and re-read it only when the heap actually changed (an
        #: attribute load is ~4x cheaper than the method call).
        self.version = 0

    def __len__(self) -> int:
        return len(self._times)

    @property
    def next_seq(self) -> int:
        """The sequence number the next ``push`` will consume."""
        return self._next_seq

    def push(self, time_s: float, kind: int, payload: int) -> int:
        """Insert one event; returns the sequence number it got."""
        times = self._times
        seqs = self._seqs
        kinds = self._kinds
        payloads = self._payloads
        size = len(times)
        seq = self._next_seq
        self._next_seq = seq + 1
        self.version += 1
        times.append(time_s)
        seqs.append(seq)
        kinds.append(kind)
        payloads.append(payload)
        # Sift up with a hole: shift ancestors down until the new key
        # fits, then store the entry once (half the array traffic of
        # swap-based sifting).  A fresh seq exceeds every stored one,
        # so the tie comparison always keeps the ancestor.
        child = size
        while child > 0:
            parent = (child - 1) >> 1
            tp = times[parent]
            if tp < time_s or (tp == time_s and seqs[parent] < seq):
                break
            times[child] = tp
            seqs[child] = seqs[parent]
            kinds[child] = kinds[parent]
            payloads[child] = payloads[parent]
            child = parent
        times[child] = time_s
        seqs[child] = seq
        kinds[child] = kind
        payloads[child] = payload
        return seq

    def peek_time(self) -> float:
        """The root's timestamp (``inf`` when empty)."""
        times = self._times
        return times[0] if times else _INF

    def pop(self) -> Tuple[float, int, int, int]:
        """Remove and return ``(time_s, seq, kind, payload)``."""
        times = self._times
        if not times:
            raise IndexError("pop from an empty SoAEventQueue")
        seqs = self._seqs
        kinds = self._kinds
        payloads = self._payloads
        out = (times[0], seqs[0], kinds[0], payloads[0])
        self.version += 1
        tail_t = times.pop()
        tail_s = seqs.pop()
        tail_k = kinds.pop()
        tail_p = payloads.pop()
        size = len(times)
        if size > 0:
            # Re-seat the displaced tail with a hole sift-down: pull
            # the smaller child up until the tail's key fits, then
            # store it once.
            parent = 0
            while True:
                left = 2 * parent + 1
                if left >= size:
                    break
                child = left
                tc = times[left]
                sc = seqs[left]
                right = left + 1
                if right < size:
                    tr = times[right]
                    if tr < tc or (tr == tc and seqs[right] < sc):
                        child = right
                        tc = tr
                        sc = seqs[right]
                if tail_t < tc or (tail_t == tc and tail_s < sc):
                    break
                times[parent] = tc
                seqs[parent] = sc
                kinds[parent] = kinds[child]
                payloads[parent] = payloads[child]
                parent = child
            times[parent] = tail_t
            seqs[parent] = tail_s
            kinds[parent] = tail_k
            payloads[parent] = tail_p
        return out


class ArrivalColumns:
    """Column-major arrival stream, ordering-identical to
    :func:`~repro.serving.request.merge_loads`.

    Rows are sorted by the total key ``(arrival_s, tenant name,
    per-tenant position)`` and the row index *is* the request id.  The
    float columns keep both numpy views (for vectorized scoring) and
    plain-list mirrors (scalar indexing on a Python list is several
    times faster than on an ndarray, and ``ndarray.tolist()`` converts
    float64 to the bit-identical Python float).
    """

    __slots__ = (
        "tenants",
        "n",
        "arrivals",
        "difficulty",
        "deadlines",
        "tenant_index",
        "arrivals_list",
        "tenant_index_list",
        "has_deadline_list",
        "_difficulty_list",
        "_deadlines_list",
        "_requests",
    )

    def __init__(self, loads: Sequence[TenantLoad]) -> None:
        seen = set()
        for load in loads:
            if load.tenant.name in seen:
                raise ValueError(
                    "duplicate tenant %r" % (load.tenant.name,)
                )
            seen.add(load.tenant.name)
        self.tenants: List[Tenant] = [load.tenant for load in loads]
        # Tenant-name ranks preserve lexicographic order, so the int
        # sort key below compares exactly like merge_loads' string.
        rank = {
            name: code
            for code, name in enumerate(
                sorted(load.tenant.name for load in loads)
            )
        }
        arrival_parts = []
        difficulty_parts = []
        tenant_parts = []
        name_parts = []
        position_parts = []
        for index, load in enumerate(loads):
            trace = load.trace
            count = trace.n_requests
            arrival_parts.append(
                np.asarray(trace.arrivals_s, dtype=np.float64)
            )
            difficulty_parts.append(
                np.asarray(trace.difficulty, dtype=np.float64)
            )
            tenant_parts.append(np.full(count, index, dtype=np.int64))
            name_parts.append(
                np.full(count, rank[load.tenant.name], dtype=np.int64)
            )
            position_parts.append(np.arange(count, dtype=np.int64))
        if arrival_parts:
            arrivals = np.concatenate(arrival_parts)
            difficulty = np.concatenate(difficulty_parts)
            tenant_index = np.concatenate(tenant_parts)
            names = np.concatenate(name_parts)
            positions = np.concatenate(position_parts)
        else:
            arrivals = np.empty(0, dtype=np.float64)
            difficulty = np.empty(0, dtype=np.float64)
            tenant_index = np.empty(0, dtype=np.int64)
            names = np.empty(0, dtype=np.int64)
            positions = np.empty(0, dtype=np.int64)
        # lexsort keys run minor-to-major: merge_loads' sort key is
        # (arrival, tenant name, position).
        order = np.lexsort((positions, names, arrivals))
        self.arrivals = arrivals[order]
        self.difficulty = difficulty[order]
        self.tenant_index = tenant_index[order]
        unusable = np.array(
            [load.tenant.requirement.unusable_s for load in loads]
            or [0.0],
            dtype=np.float64,
        )
        self.deadlines = (
            self.arrivals + unusable[self.tenant_index]
            if len(loads)
            else np.empty(0, dtype=np.float64)
        )
        self.n = int(self.arrivals.shape[0])
        self.arrivals_list = self.arrivals.tolist()
        self.tenant_index_list = self.tenant_index.tolist()
        self.has_deadline_list = np.isfinite(self.deadlines).tolist()
        # The remaining list mirrors are off the admission hot path
        # (report assembly, calibration) and build on first use.
        self._difficulty_list: Optional[List[float]] = None
        self._deadlines_list: Optional[List[float]] = None
        self._requests: List[Optional[Request]] = [None] * self.n

    @property
    def difficulty_list(self) -> List[float]:
        mirror = self._difficulty_list
        if mirror is None:
            mirror = self.difficulty.tolist()
            self._difficulty_list = mirror
        return mirror

    @property
    def deadlines_list(self) -> List[float]:
        mirror = self._deadlines_list
        if mirror is None:
            mirror = self.deadlines.tolist()
            self._deadlines_list = mirror
        return mirror

    def request_at(self, rid: int) -> Request:
        """Materialize (and cache) the ``Request`` for one row."""
        request = self._requests[rid]
        if request is None:
            request = Request(
                rid=rid,
                tenant=self.tenants[self.tenant_index_list[rid]],
                arrival_s=self.arrivals_list[rid],
                difficulty=self.difficulty_list[rid],
            )
            self._requests[rid] = request
        return request

    def materialize_all(self) -> List[Request]:
        """Every request, eagerly."""
        return [self.request_at(rid) for rid in range(self.n)]
