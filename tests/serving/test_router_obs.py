"""Integration tests: Instrumentation wired through the RequestRouter.

These drive the real discrete-event router over a real two-platform
fleet and assert that the observability layer records what actually
happened: every dispatched request appears in an execute_batch span,
the report grows a cache-neutral obs section, and instrumented runs
change neither the routing outcome nor its determinism.
"""

import pytest

from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.obs import Instrumentation, chrome_trace, validate_chrome_trace
from repro.serving import RequestRouter, RouterConfig, TenantLoad
from repro.workloads import bursty_trace


@pytest.fixture
def storm_load(fleet, snappy_tenant):
    rate = 2.0 * fleet.capacity_rps()
    trace = bursty_trace(
        n_requests=300, rate_hz=rate, burst_factor=6.0, burst_fraction=0.3,
        seed=42,
    )
    return [TenantLoad(snappy_tenant, trace)]


def _run(fleet, load, faults=None, obs=None):
    return RequestRouter(fleet, RouterConfig()).run(
        load, faults=faults, obs=obs
    )


class TestSpanCoverage:
    def test_every_request_gets_a_span(self, fleet, storm_load):
        obs = Instrumentation()
        report = _run(fleet, storm_load, obs=obs)
        n_requests = storm_load[0].trace.n_requests
        assert obs.buffer.counts["request"] == n_requests
        # Every completed request was admitted exactly once; rejected-
        # at-admission requests never reach the admission instant.
        assert (
            len(report.completed)
            <= obs.buffer.counts["admission"]
            <= n_requests
        )

    def test_completed_requests_covered_by_execute_batches(
        self, fleet, storm_load
    ):
        obs = Instrumentation()
        report = _run(fleet, storm_load, obs=obs)
        completed = [r.request.rid for r in report.completed]
        assert completed
        assert obs.coverage_of(completed) == 1.0

    def test_spans_are_well_nested_and_closed(self, fleet, storm_load):
        obs = Instrumentation()
        _run(fleet, storm_load, obs=obs)
        assert obs.tracer.open_spans == 0
        spans = {s.span_id: s for s in obs.buffer}
        for span in obs.buffer:
            if span.parent_id is not None:
                assert spans[span.parent_id].contains(span)

    def test_chrome_export_is_valid(self, fleet, storm_load):
        obs = Instrumentation()
        _run(fleet, storm_load, obs=obs)
        assert validate_chrome_trace(chrome_trace(obs.buffer)) == []


class TestReportObsSection:
    def test_report_gains_obs_section(self, fleet, storm_load):
        obs = Instrumentation()
        report = _run(fleet, storm_load, obs=obs)
        assert report.obs is not None
        section = report.obs
        assert section["n_spans"] == len(obs.buffer)
        assert section["trace_fingerprint"] == obs.buffer.fingerprint()
        assert "requests_completed_total" in {
            key.split("{")[0] for key in section["metrics"]
        }

    def test_uninstrumented_report_has_no_obs_section(
        self, fleet, storm_load
    ):
        report = _run(fleet, storm_load)
        assert report.obs is None
        assert "obs" not in report.to_dict()

    def test_metrics_agree_with_report(self, fleet, deployments, storm_load):
        obs = Instrumentation()
        report = _run(fleet, storm_load, obs=obs)
        completed = sum(
            obs.metrics.counter(
                "requests_completed_total", platform=name
            ).value
            for name in deployments
        )
        assert completed == len(report.completed)


class TestDeterminism:
    def test_same_seed_runs_have_identical_trace_fingerprints(
        self, fleet, storm_load
    ):
        first = Instrumentation()
        second = Instrumentation()
        _run(fleet, storm_load, obs=first)
        _run(fleet, storm_load, obs=second)
        assert first.buffer.fingerprint() == second.buffer.fingerprint()

    def test_report_fingerprint_cache_neutral_with_obs(
        self, fleet, storm_load
    ):
        # First run compiles (cold engine cache), second hits the
        # plan cache; the obs section's fingerprint contribution must
        # not change between them.
        cold = Instrumentation()
        warm = Instrumentation()
        a = _run(fleet, storm_load, obs=cold)
        b = _run(fleet, storm_load, obs=warm)
        assert a.fingerprint() == b.fingerprint()

    def test_instrumentation_does_not_change_routing(
        self, fleet, storm_load
    ):
        plain = _run(fleet, storm_load)
        observed = _run(fleet, storm_load, obs=Instrumentation())
        assert [r.request.rid for r in plain.completed] == [
            r.request.rid for r in observed.completed
        ]
        assert plain.n_rejected == observed.n_rejected


class TestChaosSpans:
    @pytest.fixture
    def faults(self, deployments, storm_load):
        horizon = float(storm_load[0].trace.arrivals_s[-1]) + 1.0
        config = FaultTraceConfig(
            outages=1, outage_duration_s=0.25 * horizon, transients=2
        )
        return generate_fault_trace(
            sorted(deployments), horizon, config, seed=7
        )

    def test_fault_episodes_recorded(self, fleet, storm_load, faults):
        obs = Instrumentation()
        _run(fleet, storm_load, faults=faults, obs=obs)
        episodes = obs.buffer.of_name("fault_episode")
        assert episodes
        kinds = {s.attrs["fault_kind"] for s in episodes}
        assert "outage" in kinds
        injected = sum(
            instrument.value
            for name, _labels, instrument in obs.metrics.series()
            if name == "faults_injected_total"
        )
        assert injected == len(faults)

    def test_chaos_runs_stay_deterministic(self, fleet, storm_load, faults):
        first = Instrumentation()
        second = Instrumentation()
        a = _run(fleet, storm_load, faults=faults, obs=first)
        b = _run(fleet, storm_load, faults=faults, obs=second)
        assert a.fingerprint() == b.fingerprint()
        assert first.buffer.fingerprint() == second.buffer.fingerprint()

