"""Instrumentation: the spans and metrics of one observed run.

:class:`Instrumentation` bundles one :class:`~repro.obs.span.Tracer`
(over one :class:`~repro.obs.span.TraceBuffer`) with one
:class:`~repro.obs.metrics.MetricsRegistry` and fills them one way: a
router run is *derived*.  :meth:`Instrumentation.record_run` walks the
finished report -- its event ledger, terminal records and platform
stats -- and opens, closes and counts every span and metric from it.
The router loop holds no observability code; ``RequestRouter.run``
hands its report over once, at the end.

Reports are read by duck typing: this package imports nothing from
:mod:`repro.serving`.  One instance observes one run: create a fresh
``Instrumentation`` per run (reusing one concatenates their traces).
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    OCCUPANCY_BUCKETS,
    RATE_ERROR_BUCKETS_RPS,
    SLACK_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ordered_sum,
)
from repro.obs.span import CACHE_SENSITIVE_SPANS, TraceBuffer, Tracer

__all__ = [
    "CACHE_SENSITIVE_METRIC_PREFIX",
    "SUPERVISION_METRIC_PREFIX",
    "Instrumentation",
    "cache_neutral_obs_section",
    "merge_obs_sections",
]

#: Metric families whose values depend on engine cache temperature
#: (compiles skipped on a warm cache); stripped from same-seed
#: fingerprint comparisons alongside :data:`CACHE_SENSITIVE_SPANS`.
CACHE_SENSITIVE_METRIC_PREFIX = "engine_"

#: Metric families recording shard-supervision history (attempts,
#: retries, failures by kind).  They describe host-level accidents --
#: how many times the wall clock made us re-run a worker -- never
#: simulated behaviour, so like the engine-cache families they are
#: stripped before same-seed fingerprint comparisons.
SUPERVISION_METRIC_PREFIX = "supervisor_"

#: Help text of every metric family an :class:`Instrumentation`
#: records (the first registration of a family fixes its help).
_HELP = {
    "batch_failures_total": "batches that launched and failed",
    "batch_occupancy": "occupied slots over plan capacity at launch",
    "batches_dispatched_total": "batches launched",
    "breaker_transitions_total": "circuit-breaker state changes",
    "control_prewarms_total": "rungs pre-warmed by the controller",
    "control_ticks_total": "predictive controller ticks",
    "deadline_slack_s": "deadline minus finish (negative: missed)",
    "degradation_level": "current ladder level",
    "degradation_moves_total": "ladder steps taken",
    "dvfs_moves_total": "controller-commanded frequency changes",
    "engine_cache_hits_total": "compile/execute cache hits",
    "engine_compiles_total": "plan-cache misses compiled",
    "engine_executes_total": "plan executions (hits included)",
    "engine_prewarms_total": "plan-cache entries requested by prewarm",
    "failovers_total": "requests moved off a dead platform",
    "faults_injected_total": "fault events applied",
    "forecast_error_rps": "absolute one-step forecast error",
    "forecast_rate_rps": "forecast fleet arrival rate",
    "platform_energy_j": "energy spent serving completed batches",
    "platform_frequency": "commanded relative frequency",
    "queue_depth": "requests queued on the platform",
    "request_latency_s": "arrival to batch completion",
    "requests_admitted_total": "requests admitted onto a platform queue",
    "requests_completed_total": "requests served to completion",
    "requests_rejected_total": "requests terminally rejected",
    "retries_total": "failed requests re-admitted after backoff",
}

#: Bucket edges of the histogram families.
_EDGES = {
    "batch_occupancy": OCCUPANCY_BUCKETS,
    "deadline_slack_s": SLACK_BUCKETS_S,
    "forecast_error_rps": RATE_ERROR_BUCKETS_RPS,
    "request_latency_s": LATENCY_BUCKETS_S,
}

#: ``record_run``'s ``engine_counts`` keys and the series they feed.
_ENGINE_COUNTS = (
    ("executes", "engine_executes_total", {}),
    ("prewarm_hits", "engine_prewarms_total", {"outcome": "hit"}),
    ("prewarm_misses", "engine_prewarms_total", {"outcome": "miss"}),
)

#: Fault kinds that open an episode / close it again; transients are
#: instantaneous.
_EPISODE_BEGIN = ("outage", "sm_fail", "bw_degrade", "throttle")
_EPISODE_END = {
    "restore": "outage",
    "sm_recover": "sm_fail",
    "bw_recover": "bw_degrade",
    "throttle_end": "throttle",
}


def cache_neutral_obs_section(section: dict) -> dict:
    """An ``obs`` report section with cache-temperature noise removed.

    Used by ``RouterReport.fingerprint``: span counts of
    :data:`~repro.obs.span.CACHE_SENSITIVE_SPANS` and metric families
    prefixed ``engine_`` vary with engine cache warmth, and the
    ``supervisor_`` families vary with host-level chaos and retries,
    so they (and the total span count they shift) are dropped before
    hashing.
    """
    span_counts = {
        name: count
        for name, count in section.get("span_counts", {}).items()
        if name not in CACHE_SENSITIVE_SPANS
    }
    metrics = {
        series: value
        for series, value in section.get("metrics", {}).items()
        if not series.startswith(CACHE_SENSITIVE_METRIC_PREFIX)
        and not series.startswith(SUPERVISION_METRIC_PREFIX)
    }
    neutral = {
        "span_counts": span_counts,
        "metrics": metrics,
        "trace_fingerprint": section.get("trace_fingerprint"),
    }
    if "trace_fingerprints" in section:
        # Merged sections carry the per-shard leaf fingerprints too;
        # they are cache-neutral by construction, so they survive.
        neutral["trace_fingerprints"] = section["trace_fingerprints"]
    return neutral


def _merge_metric_series(series: str, entries: List[dict]) -> dict:
    """Fold one metric series' snapshots from several obs sections.

    Counters and histogram states are sums (associative and, in the
    shard layer, over disjoint label sets anyway); gauges -- last-write
    -wins instantaneous levels with no cross-process "last" -- merge as
    the maximum, the conservative envelope for the levels they track
    (queue depth, degradation level).
    """
    kinds = sorted({entry["kind"] for entry in entries})
    if len(kinds) != 1:
        raise ValueError(
            "metric series %r has conflicting kinds across sections: %s"
            % (series, ", ".join(kinds))
        )
    kind = kinds[0]
    if kind == "counter":
        return {"kind": kind, "value": ordered_sum(e["value"] for e in entries)}
    if kind == "gauge":
        return {"kind": kind, "value": max(e["value"] for e in entries)}
    if kind != "histogram":
        raise ValueError("unknown metric kind %r in series %r" % (kind, series))
    edges = [tuple(edge for edge, _count in e["buckets"]) for e in entries]
    if any(other != edges[0] for other in edges[1:]):
        raise ValueError(
            "histogram series %r has mismatched bucket edges across "
            "sections" % (series,)
        )
    buckets = [
        [edge, sum(e["buckets"][index][1] for e in entries)]
        for index, edge in enumerate(edges[0])
    ]
    mins = [e["min"] for e in entries if e["min"] is not None]
    maxs = [e["max"] for e in entries if e["max"] is not None]
    return {
        "kind": kind,
        "buckets": buckets,
        "count": sum(e["count"] for e in entries),
        "sum": ordered_sum(e["sum"] for e in entries),
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
    }


def merge_obs_sections(sections: Sequence[dict]) -> dict:
    """Fold several per-run ``obs`` report sections into one.

    Span counts, metric counters and histogram states sum; gauges take
    their maximum.  The merged section keeps every leaf trace
    fingerprint (sorted, under ``trace_fingerprints``) and derives the
    combined ``trace_fingerprint`` by hashing that sorted list -- so
    the result is independent of merge order and grouping.  Callers
    wanting that associativity guarantee must pass leaf sections in a
    canonical order (``RouterReport.merge`` sorts its leaves before
    folding).
    """
    if not sections:
        raise ValueError("merge_obs_sections needs at least one section")
    if len(sections) == 1:
        return dict(sections[0])
    span_counts: Dict[str, int] = {}
    for section in sections:
        for name, count in section.get("span_counts", {}).items():
            span_counts[name] = span_counts.get(name, 0) + count
    series_entries: Dict[str, List[dict]] = {}
    for section in sections:
        for series, entry in section.get("metrics", {}).items():
            series_entries.setdefault(series, []).append(entry)
    metrics = {
        series: _merge_metric_series(series, series_entries[series])
        for series in sorted(series_entries)
    }
    fingerprints: List[str] = []
    for section in sections:
        nested = section.get("trace_fingerprints")
        if nested is not None:
            fingerprints.extend(nested)
        elif section.get("trace_fingerprint") is not None:
            fingerprints.append(section["trace_fingerprint"])
    fingerprints.sort()
    combined = hashlib.sha1(
        json.dumps(
            fingerprints, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    ).hexdigest()
    return {
        "n_spans": sum(section.get("n_spans", 0) for section in sections),
        "span_counts": {
            name: span_counts[name] for name in sorted(span_counts)
        },
        "metrics": metrics,
        "trace_fingerprint": combined,
        "trace_fingerprints": fingerprints,
    }


class Instrumentation:
    """Tracer + metrics of one observed run.

    ``shard`` optionally names the shard this run executes on (e.g.
    ``"s0"``): the run/platform spans carry it as a ``shard``
    attribute and every metric series gets a ``shard`` base label, so
    merging per-shard obs sections never collides series from
    different workers.  ``None`` (the default) leaves spans and
    series exactly as an unsharded run produces them -- the 1-shard
    degenerate case must not perturb a single fingerprint.
    """

    def __init__(self, shard: Optional[str] = None) -> None:
        self.shard = shard
        self.buffer = TraceBuffer()
        self.tracer = Tracer(self.buffer)
        self.metrics = MetricsRegistry(
            base_labels={"shard": shard} if shard is not None else None
        )
        #: ``(kind, family, *label items)`` -> its series, so a series
        #: is resolved (labels sorted, base labels merged) once.
        self._series: Dict[tuple, object] = {}

    def _resolve(self, kind: str, name: str, labels: Dict[str, object]):
        key = (kind, name, *labels.items())
        series = self._series.get(key)
        if series is None:
            edges = (_EDGES[name],) if kind == "histogram" else ()
            series = self._series[key] = getattr(self.metrics, kind)(
                name, *edges, _HELP[name], **labels
            )
        return series

    def _counter(self, name: str, **labels) -> Counter:
        return self._resolve("counter", name, labels)

    def _gauge(self, name: str, **labels) -> Gauge:
        return self._resolve("gauge", name, labels)

    def _histogram(self, name: str, **labels) -> Histogram:
        return self._resolve("histogram", name, labels)

    # -- router runs -----------------------------------------------------
    def record_run(
        self,
        report,
        tick_errors: Sequence[float] = (),
        engine_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Derive one finished router run's spans and metrics.

        ``report`` is a :class:`~repro.serving.report.RouterReport`:
        its ledger's event log is walked in order, request spans start
        at the ``arrival_s`` of its completed and rejected records,
        platform tracks and ``platform_energy_j`` come from
        ``report.platforms``, and every span still open closes at
        ``max(horizon_s, latest event time)``.  Two inputs are not in
        the ledger, so the caller passes them: ``tick_errors``, the
        control plane's per-tick absolute forecast errors
        (``forecast_error_rps``), and ``engine_counts``, the engine
        activity over the run (``executes``, ``prewarm_hits``,
        ``prewarm_misses``) behind ``engine_executes_total`` and
        ``engine_prewarms_total``.
        """
        ledger = report.ledger
        replay = _LedgerReplay(self, report.platforms, ledger)
        for event in ledger.records("events"):
            getattr(replay, "on_" + event.kind)(event)
        for histogram, samples in replay.samples.items():
            histogram.observe_many(samples)
        errors = list(tick_errors)
        if errors:
            self._histogram("forecast_error_rps").observe_many(errors)
        for stats in report.platforms:
            if stats.platform in replay.served:
                self._counter(
                    "platform_energy_j", platform=stats.platform
                ).inc(stats.energy_j)
        counts = engine_counts or {}
        for key, name, labels in _ENGINE_COUNTS:
            if counts.get(key):
                self._counter(name, **labels).inc(counts[key])
        replay.close(
            max([report.horizon_s] + [row[3] for row in ledger.event_rows()])
        )

    # -- reporting -------------------------------------------------------
    def report_section(self) -> dict:
        """The plain-data ``obs`` section a report embeds.

        Span counts per name, the full metrics snapshot, and the
        cache-neutral trace fingerprint.  Keys are sorted; the section
        is JSON-serializable as-is.
        """
        counts = self.buffer.counts
        return {
            "n_spans": len(self.buffer),
            "span_counts": {
                name: counts[name] for name in sorted(counts) if counts[name]
            },
            "metrics": self.metrics.snapshot(),
            "trace_fingerprint": self.buffer.fingerprint(),
        }

    def coverage_of(self, request_ids: Sequence[int]) -> float:
        """Fraction of ``request_ids`` appearing in some
        ``execute_batch`` span -- the bench's span-coverage bar."""
        wanted = set(request_ids)
        if not wanted:
            return 1.0
        seen: set = set()
        for span in self.buffer.of_name("execute_batch"):
            seen.update(span.attrs.get("request_ids", ()))
        return len(wanted & seen) / len(wanted)


class _LedgerReplay:
    """The state of one :meth:`Instrumentation.record_run` walk.

    One method per ledger event kind, ``on_<kind>``, turns the event
    into spans and metrics.  The ledger records decisions in the order
    the loop took them, so spans open and close in the order a live
    observer of the loop would have opened and closed them.  Spans go
    in as rows (:meth:`Tracer.open_row`): an open span is a tuple.
    """

    def __init__(self, obs: Instrumentation, platforms, ledger) -> None:
        tracer = obs.tracer
        self.open = tracer.open_row
        self.close_row = tracer.close_row
        self.instant = tracer.instant_row
        self.counter = obs._counter
        self.gauge = obs._gauge
        self.histogram = obs._histogram
        #: Each histogram series' samples in walk order, observed in
        #: one go when the walk ends.
        self.samples: Dict[Histogram, List[float]] = {}
        #: ``(arrival_s, tenant name, deadline_s)`` per terminal rid.
        self.requests: Dict[int, tuple] = {
            rid: (arrival, tenant.name, arrival + tenant.requirement.unusable_s)
            for columns in (ledger.columns("completed"), ledger.columns("rejected"))
            for rid, arrival, tenant in zip(
                columns["rid"], columns["arrival_s"], columns["tenant_obj"]
            )
        }
        names = sorted(stats.platform for stats in platforms)
        shard_keys = () if obs.shard is None else ("shard",)
        shard = () if obs.shard is None else (obs.shard,)
        self.run = self.open(
            "run", 0.0, None, ("platforms",) + shard_keys,
            (",".join(names),) + shard,
        )
        self.platforms: Dict[str, tuple] = {
            name: self.open(
                "platform", 0.0, self.run, ("platform",) + shard_keys,
                (name,) + shard,
            )
            for name in names
        }
        self.open_requests: Dict[int, tuple] = {}
        #: The open ``execute_batch`` span per platform.
        self.batches: Dict[str, tuple] = {}
        self.episodes: Dict[tuple, tuple] = {}
        #: Replayed queue length per platform (the ``queue_depth`` gauge).
        self.queued: Dict[str, int] = defaultdict(int)
        #: The rid whose admission just escalated a ladder: its
        #: ``enqueue`` follows and is admitted ``ok-degraded``.
        self.escalated_rid: Optional[int] = None
        #: Platforms that completed at least one batch.
        self.served: Set[str] = set()

    def close(self, end_s: float) -> None:
        """Close every still-open span at ``end_s``: fault episodes,
        requests, platform tracks, the run, then -- in id order, marked
        ``open_at_drain`` -- the batches still in flight."""
        close = self.close_row
        for key in sorted(self.episodes, key=str):
            close(self.episodes[key], end_s, ("open_at_drain",), (True,))
        for rid in sorted(self.open_requests):
            close(self.open_requests[rid], end_s, ("outcome",), ("open_at_drain",))
        for name in sorted(self.platforms):
            close(self.platforms[name], end_s)
        close(self.run, end_s)
        for batch in sorted(self.batches.values()):
            close(batch, end_s, ("open_at_drain",), (True,))

    # -- requests --------------------------------------------------------
    def _begin_request(self, rid: int) -> tuple:
        arrival_s, tenant, _deadline_s = self.requests[rid]
        return self.open(
            "request", arrival_s, self.run, ("rid", "tenant"), (rid, tenant)
        )

    def _request_span(self, rid: int) -> tuple:
        span = self.open_requests.get(rid)
        if span is None:
            span = self.open_requests[rid] = self._begin_request(rid)
        return span

    def _samples(self, name: str, **labels) -> List[float]:
        histogram = self.histogram(name, **labels)
        samples = self.samples.get(histogram)
        if samples is None:
            samples = self.samples[histogram] = []
        return samples

    def on_enqueue(self, event) -> None:
        rid = event.request_ids[0]
        reason = "ok-degraded" if rid == self.escalated_rid else "ok"
        self.escalated_rid = None
        platform = event.platform
        self.queued[platform] += 1
        self.instant(
            "admission", event.time_s, self._request_span(rid),
            ("platform", "level", "reason"),
            (platform, event.detail["level"], reason),
        )
        self.counter("requests_admitted_total", platform=platform).inc()
        self.gauge("queue_depth", platform=platform).set(self.queued[platform])

    def on_reject(self, event) -> None:
        reason = event.detail["reason"]
        if reason == "stranded":
            self._close_batch(event.platform, event.time_s, "abandoned")
        origin = event.detail.get("origin")
        if origin is not None:
            self._evacuate(origin, event.time_s)
        # A request rejected at admission has no span yet: its span
        # brackets arrival -> now.
        rid = event.request_ids[0]
        span = self.open_requests.pop(rid, None) or self._begin_request(rid)
        self.close_row(
            span, event.time_s, ("outcome", "reason"), ("rejected", reason)
        )
        self.counter("requests_rejected_total", reason=reason).inc()

    def on_retry(self, event) -> None:
        self.instant(
            "retry", event.time_s, self._request_span(event.request_ids[0]),
            ("attempt", "backoff_s"),
            (event.detail["attempt"], event.detail["backoff_s"]),
        )
        self.counter("retries_total").inc()

    def on_failover(self, event) -> None:
        origin = event.detail["origin"]
        self._evacuate(origin, event.time_s)
        target = event.platform
        self.queued[target] += 1
        self.counter("failovers_total", origin=origin).inc()
        self.instant(
            "dispatch", event.time_s, self._request_span(event.request_ids[0]),
            ("platform", "cause", "origin"), (target, "failover", origin),
        )

    def _evacuate(self, platform: str, time_s: float) -> None:
        """A resilient outage moved ``platform``'s work away: the
        first evacuated victim abandons the batch in flight, and the
        queue is empty from here on."""
        self._close_batch(platform, time_s, "abandoned")
        self.queued[platform] = 0

    # -- batches ---------------------------------------------------------
    def on_dispatch(self, event) -> None:
        platform = event.platform
        time_s = event.time_s
        rids = event.request_ids
        level = event.detail["level"]
        capacity = event.detail["capacity"]
        self.queued[platform] -= event.detail["batch"]
        parent = self.platforms.get(platform)
        self.instant(
            "dispatch", time_s, parent, ("platform", "n_requests", "level"),
            (platform, len(rids), level),
        )
        self.batches[platform] = self.open(
            "execute_batch", time_s, parent,
            ("platform", "request_ids", "level", "batch", "capacity"),
            (platform, rids, level, len(rids), capacity),
        )
        self.counter("batches_dispatched_total", platform=platform).inc()
        self._samples("batch_occupancy", platform=platform).append(
            len(rids) / capacity
        )
        self.gauge("queue_depth", platform=platform).set(self.queued[platform])

    def _close_batch(self, platform: str, time_s: float, outcome: str) -> None:
        span = self.batches.pop(platform, None)
        if span is not None:
            self.close_row(span, time_s, ("outcome",), (outcome,))

    def on_complete(self, event) -> None:
        time_s = event.time_s
        platform = event.platform
        level = event.detail["level"]
        self._close_batch(platform, time_s, "completed")
        self.served.add(platform)
        completed = self.counter("requests_completed_total", platform=platform)
        latency = self._samples("request_latency_s")
        slack = self._samples("deadline_slack_s")
        keys = ("outcome", "platform", "level")
        values = ("completed", platform, level)
        for rid in event.request_ids:
            arrival_s, _tenant, deadline_s = self.requests[rid]
            span = self.open_requests.pop(rid, None)
            if span is not None:
                self.close_row(span, time_s, keys, values)
            completed.inc()
            latency.append(time_s - arrival_s)
            slack.append(deadline_s - time_s)

    def on_batch_failed(self, event) -> None:
        self._close_batch(event.platform, event.time_s, "failed")
        self.counter("batch_failures_total", platform=event.platform).inc()

    # -- degradation / resilience / faults -------------------------------
    def on_degrade(self, event) -> None:
        if event.detail.get("cause") == "admission":
            self.escalated_rid = event.request_ids[0]
        platform = event.platform
        self.counter(
            "degradation_moves_total", platform=platform, move=event.kind
        ).inc()
        self.gauge("degradation_level", platform=platform).set(
            event.detail["level"]
        )

    on_restore = on_degrade

    def on_breaker_open(self, event) -> None:
        self.counter(
            "breaker_transitions_total",
            platform=event.platform,
            transition=event.kind,
        ).inc()

    on_breaker_half_open = on_breaker_close = on_breaker_open

    def on_fault(self, event) -> None:
        time_s = event.time_s
        platform = event.platform
        kind = event.detail["fault_kind"]
        self.counter(
            "faults_injected_total", kind=kind, platform=platform
        ).inc()
        parent = self.platforms.get(platform)
        keys = ("platform", "fault_kind")
        if kind in _EPISODE_BEGIN:
            stale = self.episodes.pop((platform, kind), None)
            if stale is not None:
                # Re-begin without an end: close the stale episode here.
                self.close_row(stale, time_s, ("reopened",), (True,))
            self.episodes[(platform, kind)] = self.open(
                "fault_episode", time_s, parent, keys, (platform, kind)
            )
        elif kind in _EPISODE_END:
            episode = self.episodes.pop((platform, _EPISODE_END[kind]), None)
            if episode is not None:
                self.close_row(episode, time_s)
        else:
            # Transient: an instantaneous episode.
            self.instant("fault_episode", time_s, parent, keys, (platform, kind))

    # -- control plane ---------------------------------------------------
    def on_control_tick(self, event) -> None:
        detail = event.detail
        self.instant(
            "control_tick", event.time_s, self.run,
            ("observed_rps", "forecast_rps", "target_level"),
            (detail["observed_rps"], detail["forecast_rps"], detail["level"]),
        )
        self.counter("control_ticks_total").inc()
        self.gauge("forecast_rate_rps").set(detail["forecast_rps"])

    def on_prewarm(self, event) -> None:
        self.instant(
            "prewarm", event.time_s, self.platforms.get(event.platform),
            ("platform", "level"), (event.platform, event.detail["level"]),
        )
        self.counter("control_prewarms_total", platform=event.platform).inc()

    def on_dvfs(self, event) -> None:
        self.counter("dvfs_moves_total", platform=event.platform).inc()
        self.gauge("platform_frequency", platform=event.platform).set(
            event.detail["relative_frequency"]
        )

    # -- engine relays ---------------------------------------------------
    def on_compile(self, event) -> None:
        detail = event.detail
        self.instant(
            "compile", event.time_s, None,
            ("platform", "network", "batch", "perforation"),
            (
                event.platform, detail["network"], detail["batch"],
                detail["perforation"],
            ),
        )
        self.counter("engine_compiles_total").inc()

    def on_cache_hit(self, event) -> None:
        cache = event.detail["cache"]
        if cache == "compile":
            self.instant(
                "plan_cache_lookup", event.time_s, None,
                ("platform", "outcome"), (event.platform, "hit"),
            )
        self.counter("engine_cache_hits_total", cache=cache).inc()
