"""Router reports: per-tenant and per-platform aggregation.

The :class:`RouterReport` is the routing run's durable outcome: every
completion and rejection, per-tenant SoC / deadline hit-rate /
rejection-rate, per-platform utilization / energy / degradation
profile, and the full event log.  ``to_dict`` / ``to_json`` give a
stable plain-data schema, and :meth:`RouterReport.fingerprint` hashes
the canonical JSON -- the determinism guarantee ("bit-identical runs")
is asserted by comparing fingerprints.  Counts, aggregates and the
fingerprint read the per-request records as columns, so a report that
keeps its records as columns never builds them as objects for these.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.satisfaction import SoCBreakdown
from repro.obs.instrument import cache_neutral_obs_section, merge_obs_sections
from repro.obs.metrics import linear_percentile, ordered_sum
from repro.serving.canonical import write_report
from repro.serving.events import EventLog, RouterEvent
from repro.serving.request import Request

__all__ = [
    "CompletedRequest",
    "RejectedRequest",
    "TenantStats",
    "PlatformStats",
    "ResilienceStats",
    "RouterReport",
]


@dataclass(frozen=True)
class CompletedRequest:
    """One served request's end-to-end accounting."""

    request: Request
    platform: str
    level: int
    batch: int
    start_s: float
    finish_s: float
    entropy: float
    soc: SoCBreakdown

    @property
    def latency_s(self) -> float:
        """Arrival to batch completion."""
        return self.finish_s - self.request.arrival_s

    @property
    def deadline_hit(self) -> bool:
        """Whether the tenant's hard deadline was met."""
        return self.finish_s <= self.request.deadline_s

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "rid": self.request.rid,
            "tenant": self.request.tenant.name,
            "platform": self.platform,
            "level": self.level,
            "batch": self.batch,
            "arrival_s": self.request.arrival_s,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "latency_s": self.latency_s,
            "deadline_hit": self.deadline_hit,
            "entropy": self.entropy,
            "soc": self.soc.value,
            "soc_time": self.soc.soc_time,
            "soc_accuracy": self.soc.soc_accuracy,
        }


@dataclass(frozen=True)
class RejectedRequest:
    """One request the router explicitly turned away.

    ``reason`` is ``"saturated"`` or ``"infeasible"`` from admission
    control; under fault injection it may also be ``"failed"`` (batch
    execution failed, retries disabled), ``"retries-exhausted"`` (the
    retry budget ran dry), ``"outage"`` (the platform died and no
    failover target would take the request) or ``"stranded"`` (still
    queued when the simulation drained -- the zero-loss backstop).
    """

    request: Request
    reason: str

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "rid": self.request.rid,
            "tenant": self.request.tenant.name,
            "arrival_s": self.request.arrival_s,
            "reason": self.reason,
        }


#: Column name (``to_dict`` keys + ``priority``) -> path on a record.
_COMPLETED_PATHS = dict(
    rid="request.rid", tenant="request.tenant.name",
    priority="request.tenant.priority", platform="platform", level="level",
    batch="batch", arrival_s="request.arrival_s", start_s="start_s",
    finish_s="finish_s", latency_s="latency_s", deadline_hit="deadline_hit",
    entropy="entropy", soc="soc.value", soc_time="soc.soc_time",
    soc_accuracy="soc.soc_accuracy",
)
_REJECTED_PATHS = dict(
    rid="request.rid", tenant="request.tenant.name",
    priority="request.tenant.priority", arrival_s="request.arrival_s",
    reason="reason",
)


class _Columns(dict):
    """One section's records as ``{name: column}`` in record order,
    each column read off the records on first use."""

    def __init__(self, records: Sequence, paths: Mapping[str, str]) -> None:
        super().__init__()
        self.records = records
        self.paths = paths

    def __missing__(self, name: str) -> list:
        getter = attrgetter(self.paths[name])
        column = self[name] = list(map(getter, self.records))
        return column


def event_row(event: RouterEvent) -> tuple:
    """One event as the canonical writer's row: ``(kind, detail keys,
    detail values, time_s, tenant, platform, request_ids)``."""
    detail = event.detail
    keys = tuple(sorted(detail))
    return (
        event.kind, keys, tuple(map(detail.__getitem__, keys)),
        event.time_s, event.tenant, event.platform, event.request_ids,
    )


@dataclass(frozen=True)
class TenantStats:
    """One tenant's aggregate outcome."""

    tenant: str
    priority: int
    offered: int
    completed: int
    rejected: int
    deadline_hits: int
    mean_soc: float
    mean_latency_s: float

    @property
    def deadline_hit_rate(self) -> float:
        """Hits over *offered* requests: a rejection is a miss."""
        if self.offered == 0:
            return 0.0
        return self.deadline_hits / self.offered

    @property
    def rejection_rate(self) -> float:
        """Rejected over offered requests."""
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "tenant": self.tenant,
            "priority": self.priority,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_hits": self.deadline_hits,
            "deadline_hit_rate": self.deadline_hit_rate,
            "rejection_rate": self.rejection_rate,
            "mean_soc": self.mean_soc,
            "mean_latency_s": self.mean_latency_s,
        }


@dataclass(frozen=True)
class PlatformStats:
    """One platform's aggregate serving profile."""

    platform: str
    gpu: str
    batches: int
    requests: int
    busy_s: float
    utilization: float
    energy_j: float
    mean_level: float
    peak_level: int
    final_level: int
    #: Batches that launched but did not complete (faulted runs only).
    failed_batches: int = 0

    def to_dict(self) -> dict:
        """Plain-data view."""
        return {
            "platform": self.platform,
            "gpu": self.gpu,
            "batches": self.batches,
            "requests": self.requests,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "energy_j": self.energy_j,
            "mean_level": self.mean_level,
            "peak_level": self.peak_level,
            "final_level": self.final_level,
            "failed_batches": self.failed_batches,
        }


@dataclass(frozen=True)
class ResilienceStats:
    """Recovery metrics of one fault-injected routing run.

    Populated only when a run was given a
    :class:`~repro.faults.events.FaultTrace`; ``None`` on clean runs
    so the report schema of PR 2 is unchanged for them.
    """

    #: Fault events applied during the run.
    faults_injected: int = 0
    #: Full platform outage episodes that began.
    outages: int = 0
    #: Mean time-to-recovery over outage episodes that closed
    #: (restore observed) during the run.
    mttr_s: float = 0.0
    #: Outage episodes that closed during the run -- the weight of
    #: ``mttr_s``, carried so merging reports can recombine the means
    #: exactly (an unweighted mean of means is not associative).
    mttr_episodes: int = 0
    #: Batches that launched and failed (outage or transient).
    batch_failures: int = 0
    #: Failed requests re-admitted after backoff.
    retries: int = 0
    #: Requests moved off a dead platform at outage time.
    failovers: int = 0
    #: Failed-over requests that ultimately completed.
    requests_rescued: int = 0
    #: Circuit-breaker transitions observed.
    breaker_opens: int = 0
    breaker_closes: int = 0

    @classmethod
    def merge(cls, stats: "Sequence[ResilienceStats]") -> "ResilienceStats":
        """Fold several runs' recovery metrics into one.

        Every field is a sum except ``mttr_s``, which recombines as
        the episode-weighted mean -- with the weights carried in
        ``mttr_episodes``, the fold is exact for any grouping of the
        same leaf set in the same order.
        """
        stats = list(stats)
        if not stats:
            raise ValueError("ResilienceStats.merge needs at least one input")
        episodes = sum(s.mttr_episodes for s in stats)
        mttr_s = (
            ordered_sum(s.mttr_s * s.mttr_episodes for s in stats) / episodes
            if episodes
            else 0.0
        )
        return cls(
            faults_injected=sum(s.faults_injected for s in stats),
            outages=sum(s.outages for s in stats),
            mttr_s=mttr_s,
            mttr_episodes=episodes,
            batch_failures=sum(s.batch_failures for s in stats),
            retries=sum(s.retries for s in stats),
            failovers=sum(s.failovers for s in stats),
            requests_rescued=sum(s.requests_rescued for s in stats),
            breaker_opens=sum(s.breaker_opens for s in stats),
            breaker_closes=sum(s.breaker_closes for s in stats),
        )

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return {
            "faults_injected": self.faults_injected,
            "outages": self.outages,
            "mttr_s": self.mttr_s,
            "mttr_episodes": self.mttr_episodes,
            "batch_failures": self.batch_failures,
            "retries": self.retries,
            "failovers": self.failovers,
            "requests_rescued": self.requests_rescued,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
        }


@dataclass
class RouterReport:
    """Aggregate outcome of one routing run."""

    completed: List[CompletedRequest] = field(default_factory=list)
    rejected: List[RejectedRequest] = field(default_factory=list)
    platforms: List[PlatformStats] = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)
    #: Simulated end of the run (last completion, or last arrival).
    horizon_s: float = 0.0
    #: Recovery metrics of a fault-injected run (None on clean runs).
    resilience: Optional[ResilienceStats] = None
    #: Observability section of an instrumented run (None otherwise):
    #: span counts, the metrics snapshot, and the cache-neutral trace
    #: fingerprint -- see
    #: :meth:`repro.obs.instrument.Instrumentation.report_section`.
    obs: Optional[dict] = None
    #: Control-plane section of a predictively controlled run (None
    #: otherwise): forecaster accuracy per tenant, tick/prewarm/DVFS
    #: counters -- see
    #: :meth:`repro.control.plane.ControlPlane.report_section`.
    control: Optional[dict] = None
    #: The leaf reports this report was folded from (None for a leaf
    #: produced directly by a router run).  :meth:`merge` always
    #: flattens to leaves and folds them in one canonical order, which
    #: is what makes it associative and order-independent bit-for-bit;
    #: the field never enters :meth:`to_dict` or the fingerprint.
    merged_from: Optional[Tuple["RouterReport", ...]] = field(
        default=None, repr=False, compare=False
    )

    # -- the records as data --------------------------------------------
    def _completed_columns(self) -> Mapping[str, list]:
        """The completed records as ``{name: column}``."""
        return _Columns(self.completed, _COMPLETED_PATHS)

    def _rejected_columns(self) -> Mapping[str, list]:
        """The rejected records as ``{name: column}``."""
        return _Columns(self.rejected, _REJECTED_PATHS)

    def _event_rows(self) -> Iterable[tuple]:
        """The event log as :func:`event_row` rows, in order."""
        return map(event_row, self.events)

    def _event_counts(self) -> Dict[str, int]:
        return self.events.counts

    # -- fleet-level views ----------------------------------------------
    @property
    def n_offered(self) -> int:
        """Every request that reached admission."""
        return self.n_completed + self.n_rejected

    @property
    def n_completed(self) -> int:
        """Requests served to completion."""
        return len(self._completed_columns()["rid"])

    @property
    def n_rejected(self) -> int:
        """Requests turned away by admission control."""
        return len(self._rejected_columns()["rid"])

    @property
    def deadline_hits(self) -> int:
        """Completions inside their tenant's hard deadline."""
        return sum(self._completed_columns()["deadline_hit"])

    @property
    def deadline_hit_rate(self) -> float:
        """Hits over offered requests (rejections count as misses)."""
        if self.n_offered == 0:
            return 0.0
        return self.deadline_hits / self.n_offered

    @property
    def rejection_rate(self) -> float:
        """Rejections over offered requests."""
        if self.n_offered == 0:
            return 0.0
        return self.n_rejected / self.n_offered

    @property
    def mean_soc(self) -> float:
        """Mean SoC over completed requests."""
        values = self._completed_columns()["soc"]
        return ordered_sum(values) / len(values) if values else 0.0

    @property
    def total_energy_j(self) -> float:
        """Fleet-wide energy spent serving."""
        return ordered_sum(p.energy_j for p in self.platforms)

    def soc_delta(self, clean: "RouterReport") -> float:
        """Mean-SoC delta of this (typically faulted) run against a
        clean reference run: negative means faults cost satisfaction."""
        return self.mean_soc - clean.mean_soc

    def percentile_latency_s(self, q: float) -> float:
        """``q``-th percentile (0..100) of completed-request latency,
        linearly interpolated -- delegated to
        :func:`repro.obs.metrics.linear_percentile`, the same edge
        conventions ``ServerReport.percentile`` uses."""
        return linear_percentile(self._completed_columns()["latency_s"], q)

    # -- per-tenant aggregation -----------------------------------------
    def per_tenant(self) -> List[TenantStats]:
        """Tenant aggregates, sorted by tenant name (a tenant's
        priority is its first completed, else first rejected, record's)."""
        done = self._completed_columns()
        turned_away = self._rejected_columns()
        rows_of: Dict[str, List[int]] = {}
        for index, name in enumerate(done["tenant"]):
            rows = rows_of.get(name)
            if rows is None:
                rows = rows_of[name] = []
            rows.append(index)
        rejected_of = Counter(turned_away["tenant"])
        hits, soc_values = done["deadline_hit"], done["soc"]
        latencies = done["latency_s"]
        stats = []
        for name in sorted(rejected_of.keys() | rows_of.keys()):
            rows = rows_of.get(name, [])
            served = len(rows)
            priority = (
                done["priority"][rows[0]]
                if rows
                else turned_away["priority"][
                    turned_away["tenant"].index(name)
                ]
            )
            stats.append(
                TenantStats(
                    tenant=name,
                    priority=priority,
                    offered=served + rejected_of[name],
                    completed=served,
                    rejected=rejected_of[name],
                    deadline_hits=sum([hits[i] for i in rows]),
                    mean_soc=(
                        ordered_sum([soc_values[i] for i in rows]) / served
                        if served
                        else 0.0
                    ),
                    mean_latency_s=(
                        ordered_sum([latencies[i] for i in rows]) / served
                        if served
                        else 0.0
                    ),
                )
            )
        return stats

    def tenant(self, name: str) -> TenantStats:
        """One tenant's aggregate (KeyError lists known tenants)."""
        for stats in self.per_tenant():
            if stats.tenant == name:
                return stats
        known = ", ".join(s.tenant for s in self.per_tenant())
        raise KeyError("no tenant %r in the report (known: %s)" % (name, known))

    def platform(self, name: str) -> PlatformStats:
        """One platform's aggregate (KeyError lists known platforms)."""
        for stats in self.platforms:
            if stats.platform == name:
                return stats
        known = ", ".join(p.platform for p in self.platforms)
        raise KeyError(
            "no platform %r in the report (known: %s)" % (name, known)
        )

    # -- merging ---------------------------------------------------------
    @classmethod
    def merge(cls, reports: "Sequence[RouterReport]") -> "RouterReport":
        """Fold several routing runs' reports into one global report.

        Request ids are re-enumerated over the union of all terminal
        records, ordered by ``(arrival_s, tenant name)`` -- the same
        total order :class:`~repro.serving.request.ArrivalColumns` assigns
        rids along, so a report merged from per-tenant partitions of
        one load set numbers requests exactly as a single router run
        over the merged load set would.  Events interleave by
        ``(time_s, leaf, seq)`` with rids remapped; platform stats,
        :class:`ResilienceStats` and obs sections fold with their
        associative merges.

        The fold is *exactly* associative and order-independent:
        inputs are flattened to their leaf reports (via
        ``merged_from``), the leaves are sorted by fingerprint, and
        every aggregate is computed over that canonical sequence --
        so any grouping or permutation of the same leaves produces a
        bit-identical result, floating-point sums included.  Merging a
        single report returns it unchanged (the 1-shard degenerate
        case preserves existing fingerprints by construction).
        """
        reports = list(reports)
        if not reports:
            raise ValueError("RouterReport.merge needs at least one report")
        if len(reports) == 1:
            return reports[0]
        leaves: List[RouterReport] = []
        for report in reports:
            leaves.extend(report.merged_from or (report,))
        leaves.sort(key=lambda leaf: leaf.fingerprint())

        # Global rid assignment over every terminal record: a stable
        # sort by (arrival, tenant) with ties resolved by canonical
        # leaf order, then local rid order.
        rid_maps: List[Dict[int, int]] = [{} for _ in leaves]
        keyed: List[Tuple[float, str, int, int]] = []
        for index, leaf in enumerate(leaves):
            requests = sorted(
                [record.request for record in leaf.completed]
                + [record.request for record in leaf.rejected],
                key=lambda request: request.rid,
            )
            for request in requests:
                keyed.append(
                    (request.arrival_s, request.tenant.name, index, request.rid)
                )
        keyed.sort(key=lambda item: (item[0], item[1]))
        for new_rid, (_arrival, _tenant, index, old_rid) in enumerate(keyed):
            if old_rid in rid_maps[index]:
                raise ValueError(
                    "request id %d appears twice in one merged report"
                    % (old_rid,)
                )
            rid_maps[index][old_rid] = new_rid

        def renumber(index: int, record):
            request = record.request
            return replace(
                record,
                request=replace(request, rid=rid_maps[index][request.rid]),
            )

        completed = [
            renumber(index, record)
            for index, leaf in enumerate(leaves)
            for record in leaf.completed
        ]
        completed.sort(key=lambda record: record.request.rid)
        rejected = [
            renumber(index, record)
            for index, leaf in enumerate(leaves)
            for record in leaf.rejected
        ]
        rejected.sort(key=lambda record: record.request.rid)

        horizon_s = max(leaf.horizon_s for leaf in leaves)
        platforms = cls._merge_platforms(leaves, horizon_s)
        events = cls._merge_events(leaves, rid_maps)
        stats = [
            leaf.resilience for leaf in leaves if leaf.resilience is not None
        ]
        resilience = ResilienceStats.merge(stats) if stats else None
        sections = [leaf.obs for leaf in leaves if leaf.obs is not None]
        obs = merge_obs_sections(sections) if sections else None
        controls = [
            leaf.control for leaf in leaves if leaf.control is not None
        ]
        control = (
            cls._merge_control_sections(controls) if controls else None
        )
        return cls(
            completed=completed,
            rejected=rejected,
            platforms=platforms,
            events=events,
            horizon_s=horizon_s,
            resilience=resilience,
            obs=obs,
            control=control,
            merged_from=tuple(leaves),
        )

    @staticmethod
    def _merge_control_sections(sections: "Sequence[dict]") -> dict:
        """Fold per-shard control-plane sections into one.

        Configuration keys (``kind``/``tick_s``/``horizon_ticks``)
        must agree across shards; counters sum; per-tenant forecaster
        stats fold observation-weighted (a tenant split across shards
        recombines its mean rate exactly and its MAE as the
        observation-weighted mean); the fleet-level forecast error
        recombines tick-weighted.
        """
        if not sections:
            raise ValueError(
                "_merge_control_sections needs at least one section"
            )
        if len(sections) == 1:
            return dict(sections[0])
        for key in ("kind", "tick_s", "horizon_ticks"):
            values = sorted({repr(section.get(key)) for section in sections})
            if len(values) != 1:
                raise ValueError(
                    "control sections disagree on %r across shards: %s"
                    % (key, ", ".join(values))
                )
        ticks = sum(section.get("ticks", 0) for section in sections)
        error_weighted = ordered_sum(
            section.get("mean_abs_error_rps", 0.0) * section.get("ticks", 0)
            for section in sections
        )
        tenants: Dict[str, dict] = {}
        for section in sections:
            for name, stats in section.get("tenants", {}).items():
                agg = tenants.setdefault(
                    name,
                    {"observations": 0, "rate_sum": 0.0, "mae_sum": 0.0},
                )
                agg["observations"] += stats["observations"]
                agg["rate_sum"] += (
                    stats["mean_rate_rps"] * stats["observations"]
                )
                agg["mae_sum"] += stats["mae_rps"] * stats["observations"]
        merged_tenants = {
            name: {
                "observations": agg["observations"],
                "mean_rate_rps": (
                    agg["rate_sum"] / agg["observations"]
                    if agg["observations"]
                    else 0.0
                ),
                "mae_rps": (
                    agg["mae_sum"] / agg["observations"]
                    if agg["observations"]
                    else 0.0
                ),
            }
            for name, agg in sorted(tenants.items())
        }
        return {
            "kind": sections[0]["kind"],
            "tick_s": sections[0]["tick_s"],
            "horizon_ticks": sections[0]["horizon_ticks"],
            "ticks": ticks,
            "mean_abs_error_rps": error_weighted / ticks if ticks else 0.0,
            "prewarm": {
                key: sum(
                    section.get("prewarm", {}).get(key, 0)
                    for section in sections
                )
                for key in ("requested", "hits", "misses")
            },
            "degrades": sum(
                section.get("degrades", 0) for section in sections
            ),
            "dvfs_moves": sum(
                section.get("dvfs_moves", 0) for section in sections
            ),
            "tenants": merged_tenants,
        }

    @staticmethod
    def _merge_platforms(
        leaves: "Sequence[RouterReport]", horizon_s: float
    ) -> List[PlatformStats]:
        """Fold per-platform stats across leaves (sums; utilization
        and mean level re-derived against the merged horizon/batch
        count).  Shard-qualified platform names never collide, but
        same-name folding is supported for unqualified merges."""
        by_name: Dict[str, dict] = {}
        for leaf in leaves:
            for stats in leaf.platforms:
                agg = by_name.get(stats.platform)
                if agg is None:
                    by_name[stats.platform] = agg = {
                        "gpu": stats.gpu,
                        "batches": 0,
                        "requests": 0,
                        "busy_s": 0.0,
                        "energy_j": 0.0,
                        "level_batches": 0.0,
                        "peak_level": 0,
                        "final_level": 0,
                        "failed_batches": 0,
                    }
                elif agg["gpu"] != stats.gpu:
                    raise ValueError(
                        "platform %r maps to GPU %r in one report and %r "
                        "in another" % (stats.platform, agg["gpu"], stats.gpu)
                    )
                agg["batches"] += stats.batches
                agg["requests"] += stats.requests
                agg["busy_s"] += stats.busy_s
                agg["energy_j"] += stats.energy_j
                agg["level_batches"] += stats.mean_level * stats.batches
                agg["peak_level"] = max(agg["peak_level"], stats.peak_level)
                agg["final_level"] = max(agg["final_level"], stats.final_level)
                agg["failed_batches"] += stats.failed_batches
        merged = []
        for name in sorted(by_name):
            agg = by_name[name]
            merged.append(
                PlatformStats(
                    platform=name,
                    gpu=agg["gpu"],
                    batches=agg["batches"],
                    requests=agg["requests"],
                    busy_s=agg["busy_s"],
                    utilization=(
                        agg["busy_s"] / horizon_s if horizon_s > 0 else 0.0
                    ),
                    energy_j=agg["energy_j"],
                    mean_level=(
                        agg["level_batches"] / agg["batches"]
                        if agg["batches"]
                        else 0.0
                    ),
                    peak_level=agg["peak_level"],
                    final_level=agg["final_level"],
                    failed_batches=agg["failed_batches"],
                )
            )
        return merged

    @staticmethod
    def _merge_events(
        leaves: "Sequence[RouterReport]",
        rid_maps: "Sequence[Dict[int, int]]",
    ) -> EventLog:
        """Interleave leaf event logs by (time, leaf, local seq) --
        per-leaf causal order survives -- remapping request ids onto
        the merged numbering."""
        entries: List[Tuple[float, int, int, RouterEvent]] = []
        for index, leaf in enumerate(leaves):
            for event in leaf.events:
                entries.append((event.time_s, index, event.seq, event))
        entries.sort(key=lambda item: (item[0], item[1], item[2]))
        merged: List[RouterEvent] = []
        for _time_s, index, _seq, event in entries:
            try:
                request_ids = tuple(
                    rid_maps[index][rid] for rid in event.request_ids
                )
            except KeyError as error:
                raise ValueError(
                    "event %r references request id %s with no terminal "
                    "record in its report" % (event.kind, error)
                ) from None
            merged.append(replace(event, request_ids=request_ids))
        return EventLog.from_events(merged)

    # -- export ----------------------------------------------------------
    def to_dict(
        self,
        include_events: bool = True,
        include_requests: bool = False,
    ) -> dict:
        """Stable plain-data schema (JSON-serializable)."""
        data = {
            "summary": {
                "offered": self.n_offered,
                "completed": self.n_completed,
                "rejected": self.n_rejected,
                "deadline_hits": self.deadline_hits,
                "deadline_hit_rate": self.deadline_hit_rate,
                "rejection_rate": self.rejection_rate,
                "mean_soc": self.mean_soc,
                "p50_latency_s": self.percentile_latency_s(50.0),
                "p95_latency_s": self.percentile_latency_s(95.0),
                "p99_latency_s": self.percentile_latency_s(99.0),
                "total_energy_j": self.total_energy_j,
                "horizon_s": self.horizon_s,
            },
            "tenants": [stats.to_dict() for stats in self.per_tenant()],
            "platforms": [stats.to_dict() for stats in self.platforms],
            "event_counts": self._event_counts(),
        }
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        if self.obs is not None:
            data["obs"] = self.obs
        if self.control is not None:
            data["control"] = self.control
        if include_events:
            data["events"] = self.events.to_dicts()
        if include_requests:
            data["completed"] = [r.to_dict() for r in self.completed]
            data["rejected"] = [r.to_dict() for r in self.rejected]
        return data

    def to_json(self, **kwargs) -> str:
        """Canonical JSON rendering of :meth:`to_dict`."""
        return json.dumps(
            self.to_dict(**kwargs), sort_keys=True, separators=(",", ":")
        )

    #: Engine hook relays excluded from the fingerprint: whether a rung
    #: compiles fresh or hits the cache depends on engine cache
    #: temperature, which is explicitly not part of routing behaviour.
    _CACHE_KINDS = ("compile", "cache_hit")

    def fingerprint(self) -> str:
        """SHA-1 over the canonical JSON of every routing decision,
        event and request record: two runs are bit-identical iff these
        match.  Engine compile/cache-hit relays (and the raw sequence
        numbers they shift) are excluded, so a warm engine cache does
        not change the fingerprint -- only routing behaviour does.  The
        bytes, those of the sorted compact ``json.dumps`` of the filtered
        ``to_dict(include_events=True, include_requests=True)``, come
        from :func:`repro.serving.canonical.write_report`."""
        head = self.to_dict(include_events=False)
        head["event_counts"] = {
            kind: count
            for kind, count in head["event_counts"].items()
            if kind not in self._CACHE_KINDS
        }
        if self.obs is not None:
            # Same rule for the obs section: engine-relayed span counts
            # and metrics vary with cache temperature, the rest must
            # not (the embedded trace fingerprint is already
            # cache-neutral by construction).
            head["obs"] = cache_neutral_obs_section(self.obs)
        if self.control is not None:
            # Prewarm hit/miss split is cache temperature too (a warm
            # engine answers every prewarm from storage); the request
            # count is routing behaviour and stays.
            control = dict(self.control)
            prewarm = control.get("prewarm")
            if isinstance(prewarm, dict):
                control["prewarm"] = {"requested": prewarm.get("requested")}
            head["control"] = control
        payload = write_report(
            head,
            self._completed_columns(),
            self._rejected_columns(),
            self._event_rows(),
            self._CACHE_KINDS,
        )
        return hashlib.sha1(payload.encode("ascii")).hexdigest()
