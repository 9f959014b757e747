"""Chaos recovery benchmark: self-healing router vs health-blind baseline.

Offers a bursty 1.5x-capacity storm to a two-platform fleet (K20c
server plus a GTX 970M notebook part, AlexNet, interactive
requirement) and injects a seeded fault trace: a mid-storm outage
plus transients on the GTX 970M -- the fleet's SoC-preferred
workhorse -- and a thermal throttle plus an SM-failure episode on the
K20c.  The same storm is served twice: once by the resilient router
(health-aware admission, failover, retries, circuit breakers) and
once with ``resilience=False``, the health-blind baseline.

Killing the *preferred* platform is the point: a dead GPU fails its
batches on schedule, so its queue keeps draining and its predicted
SoC stays excellent -- to a health-blind dispatcher the corpse is the
most attractive target in the fleet, and it silently swallows the
storm.  The resilient router instead fails over the dead platform's
queued and in-flight work, excludes it from admission until its
restore event, and rides out the surge on the surviving K20c's
degradation ladder.

The acceptance bars:

* the resilient router's deadline hit-rate (rejections count as
  misses) is at least ``MIN_HIT_RATIO`` times the baseline's,
* **zero requests are lost** in either mode: every offered request is
  either completed or explicitly rejected with a reason,
* at least one failed-over request actually completes
  (``requests_rescued``),
* and two same-seed invocations are bit-identical
  (:meth:`~repro.serving.RouterReport.fingerprint`).
"""

import pytest
from common import emit, emit_json, run_once

from repro.analysis import format_table
from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.gpu import GTX_970M, K20C
from repro.nn import alexnet
from repro.serving import RequestRouter, RouterConfig, Tenant, TenantLoad
from repro.workloads import bursty_trace

#: Offered load as a multiple of the fleet's rung-0 capacity: past
#: saturation once a platform drops out, but survivable.
OVERLOAD = 1.5

#: MMPP burst shape (matches the overload bench).
BURST_FACTOR = 6.0
BURST_FRACTION = 0.3

#: Interactive satisfaction curve: imperceptible under 100 ms, hard
#: deadline at 500 ms.
REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)

#: Requests in the storm (shrunk under --quick).
N_REQUESTS = 4000
QUICK_N_REQUESTS = 2500

#: Chaos seed for the generated fault trace (arrivals use seed 42).
CHAOS_SEED = 7

#: The PR's acceptance bar: resilient vs health-blind hit-rate.
MIN_HIT_RATIO = 1.3


def _fleet():
    spec = ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
    )
    fleet = FleetManager(alexnet(), spec, architectures=[K20C, GTX_970M])
    fleet.deploy_all()
    return spec, fleet


def _loads(spec, rate_hz, n_requests):
    tenant = Tenant(spec.name, REQUIREMENT, priority=1)
    trace = bursty_trace(
        n_requests=n_requests,
        rate_hz=rate_hz,
        burst_factor=BURST_FACTOR,
        burst_fraction=BURST_FRACTION,
        seed=42,
    )
    return [TenantLoad(tenant, trace)]


def _fault_trace(horizon_s):
    """The seeded chaos schedule: an outage (plus transients) pinned
    to the SoC-preferred notebook GPU, a throttle plus an SM-failure
    episode pinned to the server GPU -- single-platform generation
    merged into one stream, so each platform's chaos is individually
    seeded."""
    notebook = generate_fault_trace(
        platforms=["GTX970m"],
        horizon_s=horizon_s,
        config=FaultTraceConfig(
            outages=1,
            outage_duration_s=0.40 * horizon_s,
            start_window=0.5,
            transients=2,
        ),
        seed=CHAOS_SEED,
    )
    server = generate_fault_trace(
        platforms=["K20c"],
        horizon_s=horizon_s,
        config=FaultTraceConfig(
            throttles=1,
            throttle_frequency=0.75,
            throttle_duration_s=0.20 * horizon_s,
            sm_failures=1,
            sm_fail_fraction=0.25,
            sm_failure_duration_s=0.20 * horizon_s,
        ),
        seed=CHAOS_SEED + 1,
    )
    return notebook.merged_with(server)


def _terminal_rids(report):
    """Every request id the report accounts for, terminally."""
    return (
        {r.request.rid for r in report.completed}
        | {r.request.rid for r in report.rejected}
    )


def reproduce(n_requests=N_REQUESTS):
    spec, fleet = _fleet()
    capacity = fleet.capacity_rps()
    loads = _loads(spec, OVERLOAD * capacity, n_requests)
    horizon = float(loads[0].trace.arrivals_s[-1])
    faults = _fault_trace(horizon)

    resilient = RequestRouter(fleet, RouterConfig()).run(loads, faults)
    # Determinism bar: a second same-seed invocation is bit-identical.
    rerun = RequestRouter(fleet, RouterConfig()).run(loads, faults)
    baseline = RequestRouter(
        fleet, RouterConfig(resilience=False)
    ).run(loads, faults)

    rows = []
    for label, report in (
        ("resilient", resilient), ("health-blind", baseline)
    ):
        res = report.resilience
        rows.append(
            (
                label,
                "%.0f%%" % (report.deadline_hit_rate * 100),
                "%d" % report.n_rejected,
                "%d" % res.batch_failures,
                "%d" % res.retries,
                "%d" % res.failovers,
                "%d" % res.requests_rescued,
                "%.3f" % res.mttr_s,
                "%.3f" % report.mean_soc,
            )
        )
    hit_ratio = resilient.deadline_hit_rate / max(
        baseline.deadline_hit_rate, 1e-9
    )
    rows.append(
        ("hit-rate ratio", "%.2fx" % hit_ratio, "", "", "", "", "", "", "")
    )
    text = format_table(
        ["router", "deadline hits", "rejected", "batch fails", "retries",
         "failovers", "rescued", "MTTR s", "mean SoC"],
        rows,
        title="Chaos recovery under %.1fx load (AlexNet, K20c + GTX 970M, "
        "%d requests, outage + throttle + SM failure, seed %d)"
        % (OVERLOAD, n_requests, CHAOS_SEED),
    )
    return text, resilient, rerun, baseline, hit_ratio


@pytest.mark.benchmark(group="serving")
def test_bench_chaos_recovery(benchmark, quick):
    n = QUICK_N_REQUESTS if quick else N_REQUESTS
    text, resilient, rerun, baseline, hit_ratio = run_once(
        benchmark, lambda: reproduce(n)
    )
    emit("chaos_recovery", text)
    emit_json("chaos_recovery", resilient.to_dict(include_events=False))
    assert resilient.fingerprint() == rerun.fingerprint(), (
        "same-seed chaos runs diverged"
    )
    # Zero-loss invariant, both modes: every offered request reached a
    # terminal state -- completed, or rejected with an explicit reason.
    for label, report in (
        ("resilient", resilient), ("baseline", baseline)
    ):
        rids = _terminal_rids(report)
        assert rids == set(range(n)), (
            "%s lost %d request(s) silently"
            % (label, n - len(rids & set(range(n))))
        )
        assert len(report.completed) + len(report.rejected) == n, (
            "%s double-counted a request" % label
        )
    assert baseline.resilience.batch_failures > 0, (
        "the chaos schedule never failed a baseline batch; no fault "
        "pressure was applied"
    )
    assert resilient.resilience.requests_rescued >= 1, (
        "no failed-over request ever completed"
    )
    assert hit_ratio >= MIN_HIT_RATIO, (
        "resilient hit-rate only %.2fx of health-blind baseline "
        "(bar: %.1fx)" % (hit_ratio, MIN_HIT_RATIO)
    )
