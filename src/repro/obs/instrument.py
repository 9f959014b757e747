"""Instrumentation: the spans and metrics of one observed run.

:class:`Instrumentation` bundles one :class:`~repro.obs.span.Tracer`
(over one :class:`~repro.obs.span.TraceBuffer`) with one
:class:`~repro.obs.metrics.MetricsRegistry` and fills them one way: a
router run is *derived*.  :meth:`Instrumentation.record_run` walks the
finished report once -- its ledger's event rows, terminal records and
platform stats -- opening and closing every span on the way and
writing every metric series once at the end.
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
from itertools import chain
from operator import add, attrgetter, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    OCCUPANCY_BUCKETS,
    RATE_ERROR_BUCKETS_RPS,
    SLACK_BUCKETS_S,
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

#: ``record_run``'s ``engine_counts`` keys and the series they feed,
#: as ``(family, *label pairs)``.
_ENGINE_COUNTS = (
    ("executes", ("engine_executes_total",)),
    ("prewarm_hits", ("engine_prewarms_total", ("outcome", "hit"))),
    ("prewarm_misses", ("engine_prewarms_total", ("outcome", "miss"))),
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


def _field(keys: tuple, values: tuple, name: str):
    """A ledger row's optional detail field ``name`` (None if absent)."""
    return values[keys.index(name)] if name in keys else None


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
    their maximum.  The merged section keeps every input's trace
    fingerprint (sorted, under ``trace_fingerprints``) and derives the
    combined ``trace_fingerprint`` by hashing that sorted list, so the
    fingerprints do not depend on the input order; callers pass the
    sections of single runs, in a canonical order
    (``RouterReport.merge`` sorts its reports before folding).
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
    fingerprints = sorted(
        section["trace_fingerprint"] for section in sections
        if section.get("trace_fingerprint") is not None
    )
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

    # -- router runs -----------------------------------------------------
    def record_run(
        self,
        report,
        tick_errors: Sequence[float] = (),
        engine_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Derive one finished router run's spans and metrics.

        ``report`` is a :class:`~repro.serving.report.RouterReport`:
        its ledger's event rows are walked once, in order, request spans
        start at the ``arrival_s`` of its completed and rejected records,
        platform tracks and ``platform_energy_j`` come from
        ``report.platforms``, and every span still open closes at
        ``max(horizon_s, latest event time)``.  Two inputs are not in
        the ledger, so the caller passes them: ``tick_errors``, the
        control plane's per-tick absolute forecast errors
        (``forecast_error_rps``), and ``engine_counts``, the engine
        activity over the run (``executes``, ``prewarm_hits``,
        ``prewarm_misses``) behind ``engine_executes_total`` and
        ``engine_prewarms_total``.

        Each metric series is tallied on the walk and written once at
        its end: a counter gets one ``inc`` of its tally (below 2**53,
        exactly the float that many increments of 1.0 reach), a gauge
        its last value, a histogram its samples in walk order.
        """
        counts, gauges, samples, served = self._walk(report)
        for stats in report.platforms:
            if stats.platform in served:
                counts["platform_energy_j", ("platform", stats.platform)] += (
                    stats.energy_j
                )
        engine_counts = engine_counts or {}
        for key, series in _ENGINE_COUNTS:
            if engine_counts.get(key):
                counts[series] += engine_counts[key]
        errors = list(tick_errors)
        if errors:
            samples["forecast_error_rps",] = errors
        metrics = self.metrics
        for (name, *labels), count in counts.items():
            metrics.counter(name, _HELP[name], **dict(labels)).inc(count)
        for (name, *labels), value in gauges.items():
            metrics.gauge(name, _HELP[name], **dict(labels)).set(value)
        for (name, *labels), values in samples.items():
            metrics.histogram(
                name, _EDGES[name], _HELP[name], **dict(labels)
            ).observe_many(values)

    def _walk(self, report) -> tuple:
        """Write one run's spans in one pass over its ledger rows.

        The ledger records decisions in the order the loop took them,
        so spans open and close in the order a live observer of the
        loop would have opened and closed them.  An open span is a
        :meth:`Tracer.open_row` tuple; an instant one is written as one
        row.  Returns the metric tallies ``counts``, ``gauges`` and
        ``samples``, each keyed by series ``(family, *label pairs)``,
        and the platforms that completed a batch.
        """
        tracer = self.tracer
        open_row, close_row, instant = (
            tracer.open_row, tracer.close_row, tracer.instant_row
        )
        ledger = report.ledger
        rows = ledger.event_rows()
        # ``(arrival_s, tenant name, deadline_s)`` per terminal rid.
        requests: Dict[int, tuple] = {}
        for section in ("completed", "rejected"):
            columns = ledger.columns(section)
            arrivals, tenants = columns["arrival_s"], columns["tenant_obj"]
            deadlines = map(
                add, arrivals, map(attrgetter("requirement.unusable_s"), tenants)
            )
            requests.update(zip(columns["rid"], zip(
                arrivals, map(attrgetter("name"), tenants), deadlines
            )))
        names = sorted(stats.platform for stats in report.platforms)
        shard_keys = () if self.shard is None else ("shard",)
        shard = () if self.shard is None else (self.shard,)
        run = open_row(
            "run", 0.0, None, ("platforms",) + shard_keys,
            (",".join(names),) + shard,
        )
        platforms = {
            name: open_row(
                "platform", 0.0, run, ("platform",) + shard_keys,
                (name,) + shard,
            )
            for name in names
        }
        open_requests: Dict[int, tuple] = {}
        # The open ``execute_batch`` row per platform, and the open
        # ``fault_episode`` row per ``(platform, fault kind)``.
        batches: Dict[str, tuple] = {}
        episodes: Dict[tuple, tuple] = {}
        # Replayed queue length per platform (the ``queue_depth`` gauge).
        queued: Dict[str, int] = defaultdict(int)
        counts: Dict[tuple, float] = defaultdict(int)
        gauges: Dict[tuple, object] = {}
        samples: Dict[tuple, List[float]] = defaultdict(list)
        served: Set[str] = set()
        # The rid whose admission just escalated a ladder: its
        # ``enqueue`` follows and is admitted ``ok-degraded``.
        escalated = None

        def begin_request(rid: int) -> tuple:
            arrival_s, tenant, _deadline_s = requests[rid]
            return open_row(
                "request", arrival_s, run, ("rid", "tenant"), (rid, tenant)
            )

        def request_span(rid: int) -> tuple:
            span = open_requests.get(rid)
            if span is None:
                span = open_requests[rid] = begin_request(rid)
            return span

        def close_batch(platform: str, time_s: float, outcome: str) -> None:
            span = batches.pop(platform, None)
            if span is not None:
                close_row(span, time_s, ("outcome",), (outcome,))

        def evacuate(platform: str, time_s: float) -> None:
            # A resilient outage moved the platform's work away: the
            # first evacuated victim abandons the batch in flight, and
            # the queue is empty from here on.
            close_batch(platform, time_s, "abandoned")
            queued[platform] = 0

        for kind, keys, values, time_s, _tenant, platform, rids in rows:
            if kind == "enqueue":
                rid = rids[0]
                queued[platform] += 1
                instant(
                    "admission", time_s, request_span(rid),
                    ("platform", "level", "reason"),
                    (
                        platform, values[keys.index("level")],
                        "ok-degraded" if rid == escalated else "ok",
                    ),
                )
                escalated = None
                counts["requests_admitted_total", ("platform", platform)] += 1
                gauges["queue_depth", ("platform", platform)] = queued[platform]
            elif kind == "reject":
                reason = values[keys.index("reason")]
                if reason == "stranded":
                    close_batch(platform, time_s, "abandoned")
                origin = _field(keys, values, "origin")
                if origin is not None:
                    evacuate(origin, time_s)
                # A request rejected at admission has no span yet: its
                # span brackets arrival -> now.
                rid = rids[0]
                span = open_requests.pop(rid, None) or begin_request(rid)
                close_row(
                    span, time_s, ("outcome", "reason"), ("rejected", reason)
                )
                counts["requests_rejected_total", ("reason", reason)] += 1
            elif kind == "dispatch":
                level = values[keys.index("level")]
                capacity = values[keys.index("capacity")]
                queued[platform] -= values[keys.index("batch")]
                parent = platforms.get(platform)
                instant(
                    "dispatch", time_s, parent,
                    ("platform", "n_requests", "level"),
                    (platform, len(rids), level),
                )
                batches[platform] = open_row(
                    "execute_batch", time_s, parent,
                    ("platform", "request_ids", "level", "batch", "capacity"),
                    (platform, rids, level, len(rids), capacity),
                )
                counts["batches_dispatched_total", ("platform", platform)] += 1
                samples["batch_occupancy", ("platform", platform)].append(
                    len(rids) / capacity
                )
                gauges["queue_depth", ("platform", platform)] = queued[platform]
            elif kind == "complete":
                closing = ("completed", platform, values[keys.index("level")])
                close_batch(platform, time_s, "completed")
                served.add(platform)
                latency = samples["request_latency_s",]
                slack = samples["deadline_slack_s",]
                for rid in rids:
                    arrival_s, _tenant, deadline_s = requests[rid]
                    span = open_requests.pop(rid, None)
                    if span is not None:
                        close_row(
                            span, time_s, ("outcome", "platform", "level"),
                            closing,
                        )
                    latency.append(time_s - arrival_s)
                    slack.append(deadline_s - time_s)
                counts["requests_completed_total", ("platform", platform)] += (
                    len(rids)
                )
            elif kind == "retry":
                instant(
                    "retry", time_s, request_span(rids[0]),
                    ("attempt", "backoff_s"),
                    (
                        values[keys.index("attempt")],
                        values[keys.index("backoff_s")],
                    ),
                )
                counts["retries_total",] += 1
            elif kind == "failover":
                origin = values[keys.index("origin")]
                evacuate(origin, time_s)
                queued[platform] += 1
                counts["failovers_total", ("origin", origin)] += 1
                instant(
                    "dispatch", time_s, request_span(rids[0]),
                    ("platform", "cause", "origin"),
                    (platform, "failover", origin),
                )
            elif kind == "batch_failed":
                close_batch(platform, time_s, "failed")
                counts["batch_failures_total", ("platform", platform)] += 1
            elif kind in ("degrade", "restore"):
                if _field(keys, values, "cause") == "admission":
                    escalated = rids[0]
                counts[
                    "degradation_moves_total", ("move", kind),
                    ("platform", platform),
                ] += 1
                gauges["degradation_level", ("platform", platform)] = values[
                    keys.index("level")
                ]
            elif kind in ("breaker_open", "breaker_half_open", "breaker_close"):
                counts[
                    "breaker_transitions_total", ("platform", platform),
                    ("transition", kind),
                ] += 1
            elif kind == "fault":
                fault = values[keys.index("fault_kind")]
                counts[
                    "faults_injected_total", ("kind", fault),
                    ("platform", platform),
                ] += 1
                parent = platforms.get(platform)
                episode = (platform, fault)
                if fault in _EPISODE_BEGIN:
                    stale = episodes.pop(episode, None)
                    if stale is not None:
                        # Re-begin without an end: close the stale
                        # episode here.
                        close_row(stale, time_s, ("reopened",), (True,))
                    episodes[episode] = open_row(
                        "fault_episode", time_s, parent,
                        ("platform", "fault_kind"), episode,
                    )
                elif fault in _EPISODE_END:
                    begun = episodes.pop((platform, _EPISODE_END[fault]), None)
                    if begun is not None:
                        close_row(begun, time_s)
                else:
                    # Transient: an instantaneous episode.
                    instant(
                        "fault_episode", time_s, parent,
                        ("platform", "fault_kind"), episode,
                    )
            elif kind == "control_tick":
                forecast_rps = values[keys.index("forecast_rps")]
                instant(
                    "control_tick", time_s, run,
                    ("observed_rps", "forecast_rps", "target_level"),
                    (
                        values[keys.index("observed_rps")], forecast_rps,
                        values[keys.index("level")],
                    ),
                )
                counts["control_ticks_total",] += 1
                gauges["forecast_rate_rps",] = forecast_rps
            elif kind == "prewarm":
                instant(
                    "prewarm", time_s, platforms.get(platform),
                    ("platform", "level"),
                    (platform, values[keys.index("level")]),
                )
                counts["control_prewarms_total", ("platform", platform)] += 1
            elif kind == "dvfs":
                counts["dvfs_moves_total", ("platform", platform)] += 1
                gauges["platform_frequency", ("platform", platform)] = values[
                    keys.index("relative_frequency")
                ]
            elif kind == "compile":
                instant(
                    "compile", time_s, None,
                    ("platform", "network", "batch", "perforation"),
                    (platform,) + tuple(
                        values[keys.index(key)]
                        for key in ("network", "batch", "perforation")
                    ),
                )
                counts["engine_compiles_total",] += 1
            elif kind == "cache_hit":
                cache = values[keys.index("cache")]
                if cache == "compile":
                    instant(
                        "plan_cache_lookup", time_s, None,
                        ("platform", "outcome"), (platform, "hit"),
                    )
                counts["engine_cache_hits_total", ("cache", cache)] += 1
            else:
                raise ValueError("no derivation for ledger event %r" % kind)

        # Close every still-open span: fault episodes, requests,
        # platform tracks, the run, then -- in id order, marked
        # ``open_at_drain`` -- the batches still in flight.
        end_s = max(chain((report.horizon_s,), map(itemgetter(3), rows)))
        for key in sorted(episodes, key=str):
            close_row(episodes[key], end_s, ("open_at_drain",), (True,))
        for rid in sorted(open_requests):
            close_row(
                open_requests[rid], end_s, ("outcome",), ("open_at_drain",)
            )
        for name in names:
            close_row(platforms[name], end_s)
        close_row(run, end_s)
        for batch in sorted(batches.values()):
            close_row(batch, end_s, ("open_at_drain",), (True,))
        return counts, gauges, samples, served

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
