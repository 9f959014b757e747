"""Router reports: per-tenant and per-platform aggregation.

The :class:`RouterReport` is the routing run's durable outcome: every
completion and rejection, per-tenant SoC / deadline hit-rate /
rejection-rate, per-platform utilization / energy / degradation
profile, and the full event log.  ``to_dict`` / ``to_json`` give a
stable plain-data schema, and :meth:`RouterReport.fingerprint` hashes
the canonical JSON -- the determinism guarantee ("bit-identical runs")
is asserted by comparing fingerprints.  Records and events live in the
report's :class:`~repro.serving.ledger.Ledger`, whose columns and rows
every count, aggregate, export, merge and fingerprint reads.  A report
is frozen: no field is set after it is built, and ``completed`` /
``rejected`` / ``events`` build a new list from the ledger on every
read, so changing one changes nothing in the report.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.instrument import cache_neutral_obs_section, merge_obs_sections
from repro.obs.metrics import linear_percentile, linear_percentiles, ordered_sum
from repro.serving.canonical import write_report
from repro.serving.events import RouterEvent
from repro.serving.ledger import CompletedRequest, Ledger, RejectedRequest

__all__ = [
    "CompletedRequest",
    "RejectedRequest",
    "TenantStats",
    "PlatformStats",
    "ResilienceStats",
    "RouterReport",
    "cache_neutral_control_section",
]


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
        return asdict(self)


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
        return cls(mttr_s=mttr_s, mttr_episodes=episodes, **{
            name: sum(getattr(s, name) for s in stats)
            for name in _COUNTERS
        })

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return asdict(self)


#: The :class:`ResilienceStats` fields that merge as plain sums.
_COUNTERS = [
    spec.name for spec in fields(ResilienceStats)
    if spec.name not in ("mttr_s", "mttr_episodes")
]


def cache_neutral_control_section(control: dict) -> dict:
    """A ``control`` report section with cache temperature removed.

    The prewarm hit/miss split is cache temperature (a warm engine
    answers every prewarm from storage), so only the request count,
    which is routing behaviour, is kept.  Used by every fingerprint
    that covers a control section.
    """
    control = dict(control)
    prewarm = control.get("prewarm")
    if isinstance(prewarm, Mapping):
        control["prewarm"] = {"requested": prewarm.get("requested")}
    return control


@dataclass(frozen=True)
class RouterReport:
    """Aggregate outcome of one routing run, read-only once built: a
    router run, merge or transform returns a new report."""

    platforms: List[PlatformStats] = field(default_factory=list)
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
    #: The completed and rejected records and the event log.
    ledger: Ledger = field(default_factory=Ledger, repr=False)

    # -- records ---------------------------------------------------------
    @property
    def completed(self) -> List[CompletedRequest]:
        """The completed records, a new list on every read."""
        return list(self.ledger.records("completed"))

    @property
    def rejected(self) -> List[RejectedRequest]:
        """The rejected records, a new list on every read."""
        return list(self.ledger.records("rejected"))

    @property
    def events(self) -> List[RouterEvent]:
        """The event log in order, a new list on every read."""
        return list(self.ledger.records("events"))

    # -- fleet-level views ----------------------------------------------
    @property
    def n_offered(self) -> int:
        """Every request that reached admission."""
        return self.n_completed + self.n_rejected

    @property
    def n_completed(self) -> int:
        """Requests served to completion."""
        return self.ledger.count("completed")

    @property
    def n_rejected(self) -> int:
        """Requests turned away by admission control."""
        return self.ledger.count("rejected")

    @property
    def deadline_hits(self) -> int:
        """Completions inside their tenant's hard deadline."""
        return sum(self.ledger.columns("completed")["deadline_hit"])

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
        values = self.ledger.columns("completed")["soc"]
        return ordered_sum(values) / len(values) if values else 0.0

    @property
    def total_energy_j(self) -> float:
        """Fleet-wide energy spent serving."""
        return ordered_sum(p.energy_j for p in self.platforms)

    def percentile_latency_s(self, q: float) -> float:
        """``q``-th percentile (0..100) of completed-request latency,
        linearly interpolated -- delegated to
        :func:`repro.obs.metrics.linear_percentile`, the same edge
        conventions ``ServerReport.percentile`` uses."""
        return linear_percentile(self.ledger.columns("completed")["latency_s"], q)

    # -- per-tenant aggregation -----------------------------------------
    def per_tenant(self) -> List[TenantStats]:
        """Tenant aggregates, sorted by tenant name (a tenant's
        priority is its first completed, else first rejected, record's)."""
        done = self.ledger.columns("completed")
        turned_away = self.ledger.columns("rejected")
        rows_of: Dict[str, List[int]] = {}
        for index, name in enumerate(done["tenant"]):
            rows_of.setdefault(name, []).append(index)
        rejected_of = Counter(turned_away["tenant"])

        def mean(column: str, rows: List[int]) -> float:
            values = list(map(done[column].__getitem__, rows))
            return ordered_sum(values) / len(rows) if rows else 0.0

        stats = []
        for name in sorted(rejected_of.keys() | rows_of.keys()):
            rows = rows_of.get(name, [])
            priority = (
                done["priority"][rows[0]]
                if rows
                else turned_away["priority"][
                    turned_away["tenant"].index(name)
                ]
            )
            stats.append(TenantStats(
                tenant=name,
                priority=priority,
                offered=len(rows) + rejected_of[name],
                completed=len(rows),
                rejected=rejected_of[name],
                deadline_hits=sum(map(done["deadline_hit"].__getitem__, rows)),
                mean_soc=mean("soc", rows),
                mean_latency_s=mean("latency_s", rows),
            ))
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
        ``(time_s, report, seq)`` with rids remapped; platform stats,
        :class:`ResilienceStats` and obs sections fold with their own
        merges.

        The fold is order-independent: the reports are sorted by
        fingerprint and every aggregate is computed over that
        canonical sequence, so any permutation of the same reports
        produces a bit-identical result, floating-point sums included.
        A merged report keeps no inputs: merged again, it folds as one
        report.  Merging a single report returns it unchanged (the
        1-shard degenerate case preserves existing fingerprints by
        construction).
        """
        reports = list(reports)
        if not reports:
            raise ValueError("RouterReport.merge needs at least one report")
        if len(reports) == 1:
            return reports[0]
        leaves = sorted(reports, key=lambda leaf: leaf.fingerprint())

        horizon_s = max(leaf.horizon_s for leaf in leaves)
        platforms = cls._merge_platforms(leaves, horizon_s)
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
            platforms=platforms,
            horizon_s=horizon_s,
            resilience=resilience,
            obs=obs,
            control=control,
            ledger=Ledger.merged([leaf.ledger for leaf in leaves]),
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
        tenants: Dict[str, List[dict]] = {}
        for section in sections:
            for name, stats in section.get("tenants", {}).items():
                tenants.setdefault(name, []).append(stats)
        merged_tenants = {}
        for name in sorted(tenants):
            rows = tenants[name]
            observations = sum(stats["observations"] for stats in rows)
            merged_tenants[name] = {"observations": observations}
            for key in ("mean_rate_rps", "mae_rps"):
                weighted = ordered_sum(
                    (stats[key] * stats["observations"] for stats in rows), 0.0
                )
                merged_tenants[name][key] = (
                    weighted / observations if observations else 0.0
                )
        return {
            "kind": sections[0]["kind"],
            "tick_s": sections[0]["tick_s"],
            "horizon_ticks": sections[0]["horizon_ticks"],
            "ticks": ticks,
            "mean_abs_error_rps": error_weighted / ticks if ticks else 0.0,
            "prewarm": {
                key: sum(s.get("prewarm", {}).get(key, 0) for s in sections)
                for key in ("requested", "hits", "misses")
            },
            "degrades": sum(s.get("degrades", 0) for s in sections),
            "dvfs_moves": sum(s.get("dvfs_moves", 0) for s in sections),
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
        by_name: Dict[str, List[PlatformStats]] = {}
        for leaf in leaves:
            for stats in leaf.platforms:
                rows = by_name.setdefault(stats.platform, [])
                if rows and rows[0].gpu != stats.gpu:
                    raise ValueError(
                        "platform %r maps to GPU %r in one report and %r "
                        "in another" % (stats.platform, rows[0].gpu, stats.gpu)
                    )
                rows.append(stats)
        merged = []
        for name in sorted(by_name):
            rows = by_name[name]
            batches = sum(stats.batches for stats in rows)
            busy_s = ordered_sum((stats.busy_s for stats in rows), 0.0)
            level_batches = ordered_sum(
                (stats.mean_level * stats.batches for stats in rows), 0.0
            )
            merged.append(PlatformStats(
                platform=name,
                gpu=rows[0].gpu,
                batches=batches,
                requests=sum(stats.requests for stats in rows),
                busy_s=busy_s,
                utilization=busy_s / horizon_s if horizon_s > 0 else 0.0,
                energy_j=ordered_sum((stats.energy_j for stats in rows), 0.0),
                mean_level=level_batches / batches if batches else 0.0,
                peak_level=max([0] + [stats.peak_level for stats in rows]),
                final_level=max([0] + [stats.final_level for stats in rows]),
                failed_batches=sum(stats.failed_batches for stats in rows),
            ))
        return merged

    # -- export ----------------------------------------------------------
    def to_dict(
        self,
        include_events: bool = True,
        include_requests: bool = False,
    ) -> dict:
        """Stable plain-data schema (JSON-serializable)."""
        p50, p95, p99 = linear_percentiles(
            self.ledger.columns("completed")["latency_s"], (50.0, 95.0, 99.0)
        )
        data = {
            "summary": {
                "offered": self.n_offered,
                "completed": self.n_completed,
                "rejected": self.n_rejected,
                "deadline_hits": self.deadline_hits,
                "deadline_hit_rate": self.deadline_hit_rate,
                "rejection_rate": self.rejection_rate,
                "mean_soc": self.mean_soc,
                "p50_latency_s": p50,
                "p95_latency_s": p95,
                "p99_latency_s": p99,
                "total_energy_j": self.total_energy_j,
                "horizon_s": self.horizon_s,
            },
            "tenants": [stats.to_dict() for stats in self.per_tenant()],
            "platforms": [stats.to_dict() for stats in self.platforms],
            "event_counts": self.ledger.event_counts(),
        }
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        if self.obs is not None:
            data["obs"] = self.obs
        if self.control is not None:
            data["control"] = self.control
        records = self.ledger.records
        if include_events:
            data["events"] = [event.to_dict() for event in records("events")]
        if include_requests:
            data["completed"] = [r.to_dict() for r in records("completed")]
            data["rejected"] = [r.to_dict() for r in records("rejected")]
        return data

    def to_json(self, **kwargs) -> str:
        """Canonical JSON rendering of :meth:`to_dict`."""
        return json.dumps(
            self.to_dict(**kwargs), sort_keys=True, separators=(",", ":")
        )

    #: The kinds of the rows a run's engine relay writes (each compile
    #: and each plan or report cache hit), excluded from the
    #: fingerprint: whether a rung compiles fresh or hits the cache
    #: depends on engine cache temperature, which is explicitly not
    #: part of routing behaviour.
    _CACHE_KINDS = ("compile", "cache_hit")

    def fingerprint(self) -> str:
        """SHA-1 over the canonical JSON of every routing decision,
        event and request record: two runs are bit-identical iff these
        match.  Engine compile/cache-hit relays (and the raw sequence
        numbers they shift) are excluded, so a warm engine cache does
        not change the fingerprint -- only routing behaviour does.  The
        bytes, those of the sorted compact ``json.dumps`` of the filtered
        ``to_dict(include_events=True, include_requests=True)``, come
        from :func:`repro.serving.canonical.write_report`; every call
        renders."""
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
            head["control"] = cache_neutral_control_section(self.control)
        payload = write_report(
            head,
            self.ledger.columns("completed"),
            self.ledger.columns("rejected"),
            self.ledger.event_rows(),
            self._CACHE_KINDS,
        )
        return hashlib.sha1(payload.encode("ascii")).hexdigest()
