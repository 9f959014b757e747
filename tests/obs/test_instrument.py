"""Tests for repro.obs.instrument: the Instrumentation facade.

Router runs are observed by derivation: ``record_run`` walks a
finished report.  These tests feed it small hand-written ledgers --
an event log plus the terminal records and platform rows it reads --
so each rule of the derivation is pinned in isolation, and every
derivation is held to the replay it replaced.
"""

from types import SimpleNamespace

import pytest

from repro.core.satisfaction import TimeRequirement
from repro.obs.instrument import (
    CACHE_SENSITIVE_METRIC_PREFIX,
    Instrumentation,
    cache_neutral_obs_section,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    OCCUPANCY_BUCKETS,
    RATE_ERROR_BUCKETS_RPS,
    SLACK_BUCKETS_S,
)
from repro.serving.ledger import Ledger
from repro.serving.request import Request, Tenant
from tests.obs.replay import assert_matches_replay
from tests.serving.event_log import EventLog, ledger_of


def _tenant(deadline_s: float = 0.5) -> Tenant:
    return Tenant(
        "t", TimeRequirement(imperceptible_s=0.1, unusable_s=deadline_s)
    )


class _Ledger:
    """A hand-written finished run: the event log, terminal records and
    platform rows ``record_run`` reads (duck-typed like a report)."""

    def __init__(self, platforms=("a",), horizon_s=0.0):
        self.events = EventLog()
        self.completed = []
        self.rejected = []
        self.platforms = [
            SimpleNamespace(platform=name, energy_j=0.0)
            for name in platforms
        ]
        self.horizon_s = horizon_s

    @property
    def ledger(self) -> Ledger:
        """The report's ledger: the request columns of the terminal
        records, and the event log's rows."""

        def columns(requests):
            return {
                "rid": [request.rid for request in requests],
                "arrival_s": [request.arrival_s for request in requests],
                "tenant_obj": [request.tenant for request in requests],
            }

        return Ledger(
            columns(self.completed), columns(self.rejected),
            ledger_of(events=self.events).event_rows(),
        )

    def request(self, rid, arrival_s=0.0, rejected=False):
        """Register one request's terminal record."""
        request = Request(rid=rid, tenant=_tenant(), arrival_s=arrival_s)
        records = self.rejected if rejected else self.completed
        records.append(request)
        return request

    def energy(self, platform, energy_j):
        for stats in self.platforms:
            if stats.platform == platform:
                stats.energy_j = energy_j

    def record(self, kind, time_s, rids=(), **fields):
        self.events.record(kind, time_s, request_ids=tuple(rids), **fields)
        return self

    def enqueue(self, time_s, rid, platform="a", level=0):
        return self.record(
            "enqueue", time_s, (rid,), tenant="t", platform=platform,
            level=level, predicted_soc=1.0, predicted_latency_s=0.1,
        )

    def dispatch(self, time_s, rids, platform="a", capacity=4, level=0):
        return self.record(
            "dispatch", time_s, rids, platform=platform, level=level,
            batch=len(rids), capacity=capacity, finish_s=time_s + 0.1,
        )

    def complete(self, time_s, rids, platform="a", level=0):
        return self.record(
            "complete", time_s, rids, platform=platform, level=level
        )

    def observe(self, **kwargs) -> Instrumentation:
        """``record_run`` over this ledger, held to the replay it
        replaced (``tests/obs/replay.py``)."""
        obs = Instrumentation()
        obs.record_run(self, **kwargs)
        assert_matches_replay(obs, self, **kwargs)
        return obs


def _batch_outcomes(obs):
    return sorted(
        s.attrs["outcome"] for s in obs.buffer.of_name("execute_batch")
    )


class TestLifecycle:
    def test_full_request_lifecycle_spans(self):
        ledger = _Ledger(platforms=("a", "b"), horizon_s=0.4)
        ledger.request(0, arrival_s=0.1)
        ledger.enqueue(0.1, 0).dispatch(0.2, (0,)).complete(0.4, (0,))
        obs = ledger.observe()

        counts = obs.buffer.counts
        assert counts["run"] == 1
        assert counts["platform"] == 2
        assert counts["request"] == 1
        assert counts["admission"] == 1
        assert counts["dispatch"] == 1
        assert counts["execute_batch"] == 1

        spans = {s.span_id: s for s in obs.buffer}
        for span in obs.buffer:
            if span.parent_id is not None:
                assert spans[span.parent_id].contains(span)
        request_span = obs.buffer.of_name("request")[0]
        assert request_span.start_s == 0.1
        assert request_span.attrs["outcome"] == "completed"
        assert obs.tracer.open_spans == 0

    def test_rejected_at_admission_still_gets_a_span(self):
        ledger = _Ledger(horizon_s=0.3)
        ledger.request(3, arrival_s=0.2, rejected=True)
        ledger.record("reject", 0.3, (3,), tenant="t", reason="saturated")
        obs = ledger.observe()
        span = obs.buffer.of_name("request")[0]
        assert span.start_s == 0.2 and span.end_s == 0.3
        assert span.attrs["outcome"] == "rejected"
        assert span.attrs["reason"] == "saturated"
        assert (
            obs.metrics.counter(
                "requests_rejected_total", reason="saturated"
            ).value
            == 1.0
        )

    def test_retry_and_failover_marks(self):
        ledger = _Ledger(platforms=("a", "b"), horizon_s=0.5)
        ledger.request(1)
        ledger.enqueue(0.0, 1)
        ledger.record(
            "retry", 0.2, (1,), tenant="t", attempt=1, backoff_s=0.05
        )
        ledger.record(
            "failover", 0.3, (1,), tenant="t", platform="b", origin="a",
            level=0,
        )
        ledger.complete(0.5, (1,), platform="b")
        obs = ledger.observe()
        assert obs.buffer.counts["retry"] == 1
        assert obs.metrics.counter("retries_total").value == 1.0
        assert (
            obs.metrics.counter("failovers_total", origin="a").value == 1.0
        )
        (mark,) = [
            s for s in obs.buffer.of_name("dispatch")
            if s.attrs.get("cause") == "failover"
        ]
        assert mark.attrs["platform"] == "b"
        assert mark.attrs["origin"] == "a"

    def test_open_request_spans_drained_at_run_end(self):
        # A ledger cut before the request's terminal event.
        ledger = _Ledger(horizon_s=1.0)
        ledger.request(0)
        ledger.enqueue(0.0, 0)
        obs = ledger.observe()
        span = obs.buffer.of_name("request")[0]
        assert span.end_s == 1.0
        assert span.attrs["outcome"] == "open_at_drain"
        assert obs.tracer.open_spans == 0

    def test_batches_in_flight_drain_last_in_id_order(self):
        # A ledger cut with a batch in flight on each platform.
        ledger = _Ledger(platforms=("a", "b"), horizon_s=1.0)
        for rid, platform in ((0, "b"), (1, "a")):
            ledger.request(rid)
            ledger.enqueue(0.0, rid, platform=platform)
            ledger.dispatch(0.1 * (rid + 1), [rid], platform=platform)
        obs = ledger.observe()
        closing = [(span.name, span.attrs.get("platform")) for span in obs.buffer]
        assert closing[-3:] == [
            ("run", None), ("execute_batch", "b"), ("execute_batch", "a"),
        ]
        for span in obs.buffer.of_name("execute_batch"):
            assert span.attrs["open_at_drain"] is True
            assert span.end_s == 1.0

    def test_spans_close_at_the_latest_event(self):
        ledger = _Ledger(horizon_s=0.5)
        ledger.record("fault", 2.0, platform="a", fault_kind="throttle")
        obs = ledger.observe()
        (run,) = obs.buffer.of_name("run")
        assert run.end_s == 2.0

    def test_batch_failure_and_abandonment(self):
        ledger = _Ledger(horizon_s=0.5)
        ledger.request(0, rejected=True)
        ledger.dispatch(0.1, (0,))
        ledger.record("batch_failed", 0.2, (0,), platform="a", level=0)
        ledger.dispatch(0.3, (0,))
        ledger.record(
            "reject", 0.4, (0,), tenant="t", platform="a",
            reason="stranded",
        )
        obs = ledger.observe()
        assert _batch_outcomes(obs) == ["abandoned", "failed"]
        (abandoned,) = [
            s for s in obs.buffer.of_name("execute_batch")
            if s.attrs["outcome"] == "abandoned"
        ]
        assert abandoned.end_s == 0.4
        assert (
            obs.metrics.counter("batch_failures_total", platform="a").value
            == 1.0
        )

    def test_outage_evacuation_abandons_the_batch(self):
        """A resilient outage shows in the ledger as victims carrying
        ``origin``; the first one abandons the origin's batch."""
        ledger = _Ledger(platforms=("a", "b"), horizon_s=0.6)
        ledger.request(0)
        ledger.request(1, rejected=True)
        ledger.enqueue(0.0, 0).enqueue(0.0, 1)
        ledger.dispatch(0.1, (0, 1))
        ledger.record("fault", 0.15, platform="a", fault_kind="outage")
        ledger.record(
            "failover", 0.15, (0,), tenant="t", platform="b", origin="a",
            level=0,
        )
        ledger.record(
            "reject", 0.15, (1,), tenant="t", reason="outage", origin="a"
        )
        ledger.dispatch(0.2, (0,), platform="b").complete(
            0.3, (0,), platform="b"
        )
        obs = ledger.observe()
        batches = {
            s.attrs["platform"]: s for s in obs.buffer.of_name("execute_batch")
        }
        assert batches["a"].attrs["outcome"] == "abandoned"
        assert batches["a"].end_s == 0.15
        assert batches["b"].attrs["outcome"] == "completed"

    def test_health_blind_outage_fails_at_finish(self):
        """Without evacuation events the batch on a dead platform
        runs to its ``batch_failed``."""
        ledger = _Ledger(horizon_s=0.3)
        ledger.request(0, rejected=True)
        ledger.enqueue(0.0, 0).dispatch(0.1, (0,))
        ledger.record("fault", 0.15, platform="a", fault_kind="outage")
        ledger.record("batch_failed", 0.2, (0,), platform="a", level=0)
        ledger.record("reject", 0.2, (0,), tenant="t", reason="failed")
        obs = ledger.observe()
        (batch,) = obs.buffer.of_name("execute_batch")
        assert batch.attrs["outcome"] == "failed"
        assert batch.end_s == 0.2


class TestMetricsCatalog:
    def test_deadline_slack_and_latency_histograms(self):
        ledger = _Ledger(horizon_s=0.4)
        ledger.request(0, arrival_s=0.0)  # deadline 0.5
        ledger.enqueue(0.0, 0).dispatch(0.0, (0,)).complete(0.4, (0,))
        obs = ledger.observe()
        latency = obs.metrics.histogram(
            "request_latency_s", LATENCY_BUCKETS_S
        )
        assert latency.count == 1
        assert latency.sum == pytest.approx(0.4)
        slack = obs.metrics.histogram("deadline_slack_s", SLACK_BUCKETS_S)
        assert slack.sum == pytest.approx(0.1)  # 0.5 deadline - 0.4 finish

    def test_occupancy_and_energy(self):
        ledger = _Ledger(platforms=("a", "b"), horizon_s=0.2)
        for rid in range(5):
            ledger.request(rid)
            ledger.enqueue(0.0, rid)
        ledger.dispatch(0.1, (0, 1)).complete(0.2, (0, 1))
        ledger.energy("a", 5.0)
        ledger.energy("b", 7.0)  # never completed a batch: no series
        obs = ledger.observe()
        occupancy = obs.metrics.histogram(
            "batch_occupancy", OCCUPANCY_BUCKETS, platform="a"
        )
        assert occupancy.sum == pytest.approx(0.5)  # 2 of 4 slots
        snapshot = obs.metrics.snapshot()
        assert snapshot["platform_energy_j{platform=a}"]["value"] == 5.0
        assert "platform_energy_j{platform=b}" not in snapshot
        # Five admitted, two launched: three left standing.
        assert obs.metrics.gauge("queue_depth", platform="a").value == 3

    def test_queue_depth_replay(self):
        """Enqueues and failovers add, dispatches subtract their
        batch, and an outage evacuation empties the origin."""
        ledger = _Ledger(platforms=("a", "b"), horizon_s=1.0)
        for rid in range(5):
            ledger.request(rid)
        ledger.enqueue(0.0, 0).enqueue(0.0, 1).enqueue(0.0, 2, platform="b")
        ledger.record(
            "failover", 0.1, (2,), tenant="t", platform="a", origin="b",
            level=0,
        )
        ledger.dispatch(0.2, (0, 1))
        ledger.enqueue(0.3, 3).enqueue(0.4, 4, platform="b")
        obs = ledger.observe()
        # a: 2 enqueued + 1 failed over - 2 launched + 1 enqueued.
        assert obs.metrics.gauge("queue_depth", platform="a").value == 2
        # b was evacuated, so its next admission finds it empty.
        assert obs.metrics.gauge("queue_depth", platform="b").value == 1

    def test_admission_reason_follows_an_escalation(self):
        ledger = _Ledger(horizon_s=0.1)
        for rid in (5, 6):
            ledger.request(rid)
        ledger.record(
            "degrade", 0.0, (5,), tenant="t", platform="a",
            cause="admission", level=1,
        )
        ledger.enqueue(0.0, 5, level=1).enqueue(0.0, 6, level=1)
        obs = ledger.observe()
        reasons = [
            s.attrs["reason"] for s in obs.buffer.of_name("admission")
        ]
        assert reasons == ["ok-degraded", "ok"]

    def test_breaker_and_degradation_counters(self):
        ledger = _Ledger(horizon_s=0.2)
        ledger.record("breaker_open", 0.1, platform="a")
        ledger.record("breaker_close", 0.2, platform="a")
        ledger.record("degrade", 0.1, platform="a", cause="backlog", level=1)
        obs = ledger.observe()
        assert (
            obs.metrics.counter(
                "breaker_transitions_total",
                platform="a",
                transition="breaker_open",
            ).value
            == 1.0
        )
        assert (
            obs.metrics.counter(
                "degradation_moves_total", platform="a", move="degrade"
            ).value
            == 1.0
        )
        assert obs.metrics.gauge("degradation_level", platform="a").value == 1

    def test_control_plane_marks(self):
        ledger = _Ledger(horizon_s=0.5)
        ledger.record(
            "control_tick", 0.25, observed_rps=40.0, forecast_rps=48.0,
            level=1,
        )
        ledger.record("prewarm", 0.25, platform="a", level=2, batch=8)
        ledger.record("dvfs", 0.25, platform="a", relative_frequency=0.8)
        obs = ledger.observe(tick_errors=(3.0, 12.0))
        (tick,) = obs.buffer.of_name("control_tick")
        assert tick.attrs["target_level"] == 1
        assert obs.buffer.counts["prewarm"] == 1
        assert obs.metrics.gauge("forecast_rate_rps").value == 48.0
        assert (
            obs.metrics.gauge("platform_frequency", platform="a").value
            == 0.8
        )
        errors = obs.metrics.histogram(
            "forecast_error_rps", RATE_ERROR_BUCKETS_RPS
        )
        assert errors.count == 2 and errors.sum == 15.0

    def test_engine_relays_and_activity(self):
        ledger = _Ledger()
        ledger.record(
            "compile", 0.0, platform="a", network="alexnet", batch=4,
            perforation=0.0,
        )
        ledger.record("cache_hit", 0.0, platform="a", cache="compile")
        ledger.record("cache_hit", 0.0, platform="a", cache="execute")
        obs = ledger.observe(
            engine_counts={
                "executes": 3, "prewarm_hits": 0, "prewarm_misses": 2,
            }
        )
        assert obs.buffer.counts["compile"] == 1
        assert obs.buffer.counts["plan_cache_lookup"] == 1
        snapshot = obs.metrics.snapshot()
        assert snapshot["engine_compiles_total"]["value"] == 1.0
        assert snapshot["engine_cache_hits_total{cache=execute}"]["value"] == 1.0
        assert snapshot["engine_executes_total"]["value"] == 3.0
        assert snapshot["engine_prewarms_total{outcome=miss}"]["value"] == 2.0
        assert "engine_prewarms_total{outcome=hit}" not in snapshot


class TestFaultEpisodes:
    def test_episode_pairing(self):
        ledger = _Ledger(horizon_s=3.0)
        ledger.record("fault", 1.0, platform="a", fault_kind="outage")
        ledger.record("fault", 2.5, platform="a", fault_kind="restore")
        obs = ledger.observe()
        episode = obs.buffer.of_name("fault_episode")[0]
        assert episode.start_s == 1.0 and episode.end_s == 2.5
        assert episode.attrs["fault_kind"] == "outage"
        assert "open_at_drain" not in episode.attrs

    def test_reopened_episode(self):
        ledger = _Ledger(horizon_s=3.0)
        ledger.record("fault", 1.0, platform="a", fault_kind="outage")
        ledger.record("fault", 1.5, platform="a", fault_kind="outage")
        ledger.record("fault", 2.5, platform="a", fault_kind="restore")
        obs = ledger.observe()
        first, second = obs.buffer.of_name("fault_episode")
        assert first.end_s == 1.5 and first.attrs["reopened"] is True
        assert second.start_s == 1.5 and second.end_s == 2.5

    def test_unclosed_episode_drained(self):
        ledger = _Ledger(horizon_s=4.0)
        ledger.record("fault", 1.0, platform="a", fault_kind="throttle")
        obs = ledger.observe()
        episode = obs.buffer.of_name("fault_episode")[0]
        assert episode.end_s == 4.0
        assert episode.attrs["open_at_drain"] is True

    def test_unclosed_episodes_drain_in_key_order(self):
        """Episodes open at drain close sorted by ``(platform, kind)``,
        not in the order they began."""
        ledger = _Ledger(platforms=("a", "b"), horizon_s=4.0)
        ledger.record("fault", 1.0, platform="b", fault_kind="throttle")
        ledger.record("fault", 1.5, platform="a", fault_kind="outage")
        obs = ledger.observe()
        closing = [
            span.attrs["platform"] for span in obs.buffer
            if span.name == "fault_episode"
        ]
        assert closing == ["a", "b"]

    def test_transient_is_instant(self):
        ledger = _Ledger(horizon_s=2.0)
        ledger.record("fault", 1.5, platform="a", fault_kind="transient")
        obs = ledger.observe()
        episode = obs.buffer.of_name("fault_episode")[0]
        assert episode.duration_s == 0.0
        assert (
            obs.metrics.counter(
                "faults_injected_total", kind="transient", platform="a"
            ).value
            == 1.0
        )


class TestReportSection:
    def _observed(self):
        ledger = _Ledger(horizon_s=0.2)
        ledger.request(0)
        ledger.record(
            "compile", 0.0, platform="a", network="alexnet", batch=4,
            perforation=0.0,
        )
        ledger.enqueue(0.0, 0).dispatch(0.0, (0,)).complete(0.2, (0,))
        return ledger.observe()

    def test_section_shape(self):
        section = self._observed().report_section()
        assert section["n_spans"] == len(self._observed().buffer)
        assert section["span_counts"]["request"] == 1
        assert "compile" in section["span_counts"]
        assert isinstance(section["metrics"], dict)
        assert len(section["trace_fingerprint"]) == 40

    def test_cache_neutral_section_strips_engine_noise(self):
        section = self._observed().report_section()
        neutral = cache_neutral_obs_section(section)
        assert "compile" not in neutral["span_counts"]
        assert "request" in neutral["span_counts"]
        assert not any(
            key.startswith(CACHE_SENSITIVE_METRIC_PREFIX)
            for key in neutral["metrics"]
        )
        assert "n_spans" not in neutral
        assert neutral["trace_fingerprint"] == section["trace_fingerprint"]

    def test_coverage_of(self):
        ledger = _Ledger(horizon_s=0.2)
        ledger.request(0)
        ledger.request(1)
        ledger.dispatch(0.1, (0, 1)).complete(0.2, (0, 1))
        obs = ledger.observe()
        assert obs.coverage_of([0, 1]) == 1.0
        assert obs.coverage_of([0, 1, 2, 3]) == 0.5
        assert obs.coverage_of([]) == 1.0
