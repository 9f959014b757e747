"""The ledger replay ``Instrumentation.record_run`` replaced: the
differential oracle for its one-pass walk.

:func:`oracle_record_run` derives a finished run's spans and metrics
into an :class:`~repro.obs.Instrumentation` the way ``record_run`` used
to: one ``RouterEvent`` per ledger row, dispatched through ``getattr``
to an ``on_<kind>`` handler; every metric series resolved and
incremented per event; every instant span opened and closed through
the tracer.  :func:`assert_matches_replay` holds an instrumentation's
buffer rows, closing order, metrics JSON and Prometheus text to it.
"""

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.obs import Instrumentation, metrics_to_json, prometheus_text
from repro.obs.instrument import _EDGES, _EPISODE_BEGIN, _EPISODE_END, _HELP
from repro.obs.metrics import Histogram

#: ``engine_counts`` keys and the series they feed.
_ENGINE_COUNTS = (
    ("executes", "engine_executes_total", {}),
    ("prewarm_hits", "engine_prewarms_total", {"outcome": "hit"}),
    ("prewarm_misses", "engine_prewarms_total", {"outcome": "miss"}),
)


def oracle_record_run(
    obs: Instrumentation,
    report,
    tick_errors: Sequence[float] = (),
    engine_counts: Optional[Mapping[str, int]] = None,
) -> None:
    """``record_run`` as it was: walk ``report.ledger.records("events")``."""
    ledger = report.ledger
    replay = _LedgerReplay(obs, report.platforms, ledger)
    for event in ledger.records("events"):
        getattr(replay, "on_" + event.kind)(event)
    for histogram, samples in replay.samples.items():
        histogram.observe_many(samples)
    errors = list(tick_errors)
    if errors:
        replay.histogram("forecast_error_rps").observe_many(errors)
    for stats in report.platforms:
        if stats.platform in replay.served:
            replay.counter(
                "platform_energy_j", platform=stats.platform
            ).inc(stats.energy_j)
    counts = engine_counts or {}
    for key, name, labels in _ENGINE_COUNTS:
        if counts.get(key):
            replay.counter(name, **labels).inc(counts[key])
    replay.close(
        max([report.horizon_s] + [row[3] for row in ledger.event_rows()])
    )


def buffer_rows(buffer):
    """A buffer's shapes with their rows, and its closing order."""
    return buffer.columns(), [span.span_id for span in buffer]


def assert_matches_replay(obs: Instrumentation, report, **kwargs) -> None:
    """``obs`` (after ``record_run(report, **kwargs)``) holds what the
    replay derives from ``report``: the same buffer rows in the same
    closing order, metrics JSON and Prometheus text."""
    oracle = Instrumentation(shard=obs.shard)
    oracle_record_run(oracle, report, **kwargs)
    assert buffer_rows(obs.buffer) == buffer_rows(oracle.buffer)
    assert metrics_to_json(obs.metrics) == metrics_to_json(oracle.metrics)
    assert prometheus_text(obs.metrics) == prometheus_text(oracle.metrics)


class _LedgerReplay:
    """The state of one :func:`oracle_record_run` walk.

    One method per ledger event kind, ``on_<kind>``, turns the event
    into spans and metrics.  The ledger records decisions in the order
    the loop took them, so spans open and close in the order a live
    observer of the loop would have opened and closed them.  Spans go
    in as rows (:meth:`Tracer.open_row`): an open span is a tuple.
    """

    def __init__(self, obs: Instrumentation, platforms, ledger) -> None:
        tracer = obs.tracer
        metrics = obs.metrics
        self.open = tracer.open_row
        self.close_row = tracer.close_row

        def instant(name, time_s, parent=None, keys=(), values=()):
            tracer.close_row(
                tracer.open_row(name, time_s, parent, keys, values), time_s
            )

        self.instant = instant
        self.counter = lambda name, **labels: metrics.counter(
            name, _HELP[name], **labels
        )
        self.gauge = lambda name, **labels: metrics.gauge(
            name, _HELP[name], **labels
        )
        self.histogram = lambda name, **labels: metrics.histogram(
            name, _EDGES[name], _HELP[name], **labels
        )
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
