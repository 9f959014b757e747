"""Shard planning: deterministic partitioning of tenants, seeds, faults.

Everything a shard needs -- which tenants it serves, which fault
events target it, which seed its RNG derives from -- is a pure
function of the run's global inputs plus the shard id.  Hashing goes
through :func:`repro.workloads.partition.stable_shard` (SHA-1), never
``hash()``, so the parent process and every spawn worker agree on
every assignment.

Shard-qualified platform names use the ``s<k>/<platform>`` convention:
the coordinator addresses cross-shard artifacts (fault events, merged
report rows) that way, and :func:`parse_shard_platform` splits the
prefix back off at the worker boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults.events import FaultEvent, FaultTrace
from repro.serving.request import TenantLoad
from repro.workloads.partition import partition_trace, stable_shard

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "parse_shard_platform",
    "shard_label",
    "shard_platform",
    "shard_seed",
    "split_fault_trace",
]

#: Separates the shard prefix from the platform name in qualified names.
SHARD_SEPARATOR = "/"


def shard_label(shard_id: int) -> str:
    """The canonical display name of one shard (``s0``, ``s1``, ...)."""
    if shard_id < 0:
        raise ValueError("shard_id must be >= 0, got %r" % (shard_id,))
    return "s%d" % shard_id


def shard_platform(shard_id: int, platform: str) -> str:
    """Qualify a platform name with its shard: ``s<k>/<platform>``."""
    return shard_label(shard_id) + SHARD_SEPARATOR + platform


def parse_shard_platform(name: str) -> Tuple[Optional[int], str]:
    """Split a possibly shard-qualified platform name.

    ``"s3/k20c"`` parses to ``(3, "k20c")``; a bare name returns
    ``(None, name)`` untouched (a platform legitimately named with a
    slash but no ``s<digits>`` prefix also passes through bare).
    """
    head, separator, tail = name.partition(SHARD_SEPARATOR)
    if separator and tail and head.startswith("s") and head[1:].isdigit():
        return int(head[1:]), tail
    return None, name


def shard_seed(seed: int, shard_id: int) -> int:
    """The per-shard RNG seed derived from the run's global seed.

    SHA-1 over ``"<seed>:<shard_id>"``, folded to a non-negative
    63-bit integer -- stable across processes and platforms, and
    decorrelated between shards (adjacent seeds/ids share no stream
    structure the way ``seed + shard_id`` would).
    """
    if shard_id < 0:
        raise ValueError("shard_id must be >= 0, got %r" % (shard_id,))
    digest = hashlib.sha1(
        ("%d:%d" % (seed, shard_id)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic outcome of partitioning one load set."""

    n_shards: int
    #: ``(tenant name, shard id)`` pairs, sorted by tenant name.
    assignments: Tuple[Tuple[str, int], ...]
    #: Per-shard tenant loads, indexed by shard id.
    shard_loads: Tuple[Tuple[TenantLoad, ...], ...]

    def shard_of(self, tenant: str) -> int:
        """The shard one tenant landed on (KeyError when unknown)."""
        for name, shard in self.assignments:
            if name == tenant:
                return shard
        known = ", ".join(name for name, _shard in self.assignments)
        raise KeyError("no tenant %r in the plan (known: %s)" % (tenant, known))


class ShardPlanner:
    """Deterministic hash-by-tenant partitioning of a load set.

    Whole tenants are the unit of placement: a tenant's entire trace
    lands on ``stable_shard(tenant.name, n_shards)``, so adding or
    removing *other* tenants never moves it.  For a tenant too large
    for one shard, :meth:`split_load` spreads its trace across all
    shards request-by-request via
    :func:`~repro.workloads.partition.partition_trace` instead.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %r" % (n_shards,))
        self.n_shards = n_shards

    def shard_of(self, tenant_name: str) -> int:
        """The shard a tenant name hashes to."""
        return stable_shard(tenant_name, self.n_shards)

    def plan(self, loads: Sequence[TenantLoad]) -> ShardPlan:
        """Partition ``loads`` by tenant hash (duplicate names rejected,
        mirroring :class:`~repro.serving.request.ArrivalColumns`)."""
        seen = set()
        for load in loads:
            if load.tenant.name in seen:
                raise ValueError("duplicate tenant %r" % (load.tenant.name,))
            seen.add(load.tenant.name)
        shard_loads: List[List[TenantLoad]] = [
            [] for _shard in range(self.n_shards)
        ]
        assignments: List[Tuple[str, int]] = []
        for load in loads:
            shard = self.shard_of(load.tenant.name)
            shard_loads[shard].append(load)
            assignments.append((load.tenant.name, shard))
        return ShardPlan(
            n_shards=self.n_shards,
            assignments=tuple(sorted(assignments)),
            shard_loads=tuple(tuple(piece) for piece in shard_loads),
        )

    def split_load(
        self,
        load: TenantLoad,
        key: Optional[Callable[[int], object]] = None,
    ) -> Tuple[TenantLoad, ...]:
        """One tenant's trace partitioned across every shard.

        Returns one :class:`TenantLoad` per shard (same tenant,
        disjoint sub-traces; empty sub-traces included so indexing by
        shard id always works).  The round-trip guarantee of
        :func:`~repro.workloads.partition.partition_trace` makes the
        merged report number requests exactly as an unsharded run
        over the full trace would.
        """
        return tuple(
            TenantLoad(load.tenant, part)
            for part in partition_trace(load.trace, self.n_shards, key=key)
        )


def split_fault_trace(
    faults: Optional[FaultTrace], n_shards: int
) -> List[Optional[FaultTrace]]:
    """Carve one shard-addressed fault trace into per-shard schedules.

    With more than one shard every event must target a qualified
    ``s<k>/<platform>`` name -- a bare platform name is ambiguous and
    rejected, which is what "fault traces target shards coherently"
    means at this boundary.  With one shard, bare names (and ``s0/``
    qualified ones) both flow to shard 0.  Workers receive bare
    platform names; shards the trace never mentions receive ``None``
    (a clean, resilience-stats-free run), not an empty trace.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1, got %r" % (n_shards,))
    per_shard: List[List[FaultEvent]] = [[] for _shard in range(n_shards)]
    if faults is None:
        return [None for _shard in range(n_shards)]
    for event in faults:
        shard, bare = parse_shard_platform(event.platform)
        if shard is None:
            if n_shards > 1:
                raise ValueError(
                    "fault event targets bare platform %r; with %d shards "
                    "every event must use a qualified s<k>/<platform> name"
                    % (event.platform, n_shards)
                )
            shard = 0
        if not 0 <= shard < n_shards:
            raise ValueError(
                "fault event targets shard %d of %d (%r)"
                % (shard, n_shards, event.platform)
            )
        per_shard[shard].append(replace(event, platform=bare))
    return [
        FaultTrace(events) if events else None for events in per_shard
    ]
