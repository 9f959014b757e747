"""Tenants, requests, and multi-tenant load descriptions.

A *tenant* is one traffic source sharing the fleet: it carries its own
time requirement (the deadline the router scores SoC against), a
priority (higher preempts lower in queue ordering), and -- at run time
-- a request trace.  The paper's three task classes map directly onto
tenants via :func:`Tenant.from_spec`.

Several tenants' traces interleave into one request stream in a single
total order, decided here: :class:`ArrivalColumns` builds it as float64
columns, the serving loop's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.satisfaction import TimeRequirement
from repro.core.user_input import ApplicationSpec, infer_requirement
from repro.workloads.generators import RequestTrace

__all__ = ["Tenant", "Request", "TenantLoad", "ArrivalColumns"]


@dataclass(frozen=True)
class Tenant:
    """One traffic source sharing the fleet.

    Attributes
    ----------
    name:
        Unique tenant identifier (used in reports and event logs).
    requirement:
        The satisfaction-vs-runtime curve requests are scored against;
        ``requirement.unusable_s`` is the hard deadline.
    priority:
        Higher-priority tenants are dequeued first (ties broken by
        earliest deadline, then arrival order).
    """

    name: str
    requirement: TimeRequirement
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")

    @classmethod
    def from_spec(cls, spec: ApplicationSpec, priority: int = 0) -> "Tenant":
        """Derive a tenant from an application spec (requirement
        inference per the paper's Section IV.A lookup)."""
        return cls(
            name=spec.name,
            requirement=infer_requirement(spec).time,
            priority=priority,
        )


@dataclass(frozen=True)
class Request:
    """One inference request as the router sees it."""

    rid: int
    tenant: Tenant
    arrival_s: float
    difficulty: float = 1.0

    @property
    def deadline_s(self) -> float:
        """Absolute completion deadline (infinite for background)."""
        return self.arrival_s + self.tenant.requirement.unusable_s

    @property
    def has_deadline(self) -> bool:
        """Whether the tenant's requirement bounds completion at all."""
        return math.isfinite(self.deadline_s)


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered traffic for a routing run."""

    tenant: Tenant
    trace: RequestTrace


def _check_unique_tenants(loads: Sequence[TenantLoad]) -> None:
    seen = set()
    for load in loads:
        if load.tenant.name in seen:
            raise ValueError("duplicate tenant %r" % (load.tenant.name,))
        seen.add(load.tenant.name)


class ArrivalColumns:
    """Every tenant's trace interleaved into one column-major,
    arrival-ordered stream.

    Ordering is total and deterministic: rows are sorted by
    ``(arrival_s, tenant name, per-tenant position)`` and the row
    index *is* the request id.  No ``Request`` is built: the loop
    reads each field from its column.  The columns the loop indexes
    per arrival keep both numpy views (for vectorized scoring) and
    plain-list mirrors: scalar indexing on a Python list is several
    times faster than on an ndarray, and ``ndarray.tolist()`` converts
    float64 to the bit-identical Python float, so no clock drifts by
    even one ULP on the way through.
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
    )

    def __init__(self, loads: Sequence[TenantLoad]) -> None:
        _check_unique_tenants(loads)
        self.tenants: List[Tenant] = [load.tenant for load in loads]
        # Tenant-name ranks preserve lexicographic order, so the int
        # sort key below compares exactly like the names themselves.
        rank = {
            name: code
            for code, name in enumerate(
                sorted(load.tenant.name for load in loads)
            )
        }
        counts = [load.trace.n_requests for load in loads]
        # A leading empty column keeps ``np.concatenate`` well-defined
        # (and float64) when there are no loads at all.
        arrivals = np.concatenate(
            [np.empty(0)]
            + [np.asarray(load.trace.arrivals_s, np.float64) for load in loads]
        )
        difficulty = np.concatenate(
            [np.empty(0)]
            + [np.asarray(load.trace.difficulty, np.float64) for load in loads]
        )
        tenant_index = np.repeat(np.arange(len(loads), dtype=np.int64), counts)
        names = np.repeat(
            np.array([rank[load.tenant.name] for load in loads], np.int64),
            counts,
        )
        positions = np.concatenate(
            [np.empty(0, np.int64)]
            + [np.arange(count, dtype=np.int64) for count in counts]
        )
        # lexsort keys run minor-to-major: the sort key is (arrival,
        # tenant name, position).
        order = np.lexsort((positions, names, arrivals))
        self.arrivals = arrivals[order]
        self.difficulty = difficulty[order]
        self.tenant_index = tenant_index[order]
        unusable = np.array(
            [load.tenant.requirement.unusable_s for load in loads],
            dtype=np.float64,
        )
        self.deadlines = self.arrivals + unusable[self.tenant_index]
        self.n = int(self.arrivals.shape[0])
        self.arrivals_list = self.arrivals.tolist()
        self.tenant_index_list = self.tenant_index.tolist()
        self.has_deadline_list = np.isfinite(self.deadlines).tolist()
