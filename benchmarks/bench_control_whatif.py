"""Control-plane what-if benchmark: reactive vs predictive serving.

Replays the same traces through :func:`repro.control.run_whatif` --
each scenario served once purely reactively and once with the
predictive control plane (forecasting, plan pre-warm, proactive
degradation, DVFS) attached -- and regenerates the comparison table:

* **overload** -- the router-overload storm (bursty MMPP at 2x rung-0
  fleet capacity, AlexNet on K20c + TX1).  The acceptance scenario:
  the controller must improve the deadline hit-rate without spending
  more than ``MAX_ENERGY_REGRESSION`` extra energy.
* **diurnal** -- a day/night sinusoid averaging 60% of capacity with
  deep troughs, served by the seasonal Holt-Winters controller whose
  season length matches the trace period.  This is where proactive
  DVFS earns its keep: idle platforms are power-gated into the
  troughs, so the predictive run's energy drops well below reactive
  at an unchanged hit-rate.
* **chaos** -- the 1.5x storm with a seeded fault schedule (an outage
  on the SoC-preferred TX1, a thermal throttle on the K20c) served
  with resilience on; shows the controller coexists with failover and
  the fault ladder without losing requests.

The acceptance bars:

* predictive deadline hit-rate >= reactive on the overload trace
  (strictly better at full size),
* predictive energy at most ``MAX_ENERGY_REGRESSION`` worse than
  reactive on the overload trace,
* **zero requests lost** in every scenario and mode: every offered
  request terminates as completed or rejected,
* two same-seed predictive runs are bit-identical (report and
  what-if fingerprints).
"""

import pytest
from common import emit, emit_json, run_once

from repro.analysis import format_table
from repro.control import ControllerConfig, run_whatif
from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet
from repro.serving import RouterConfig
from repro.serving.request import Tenant, TenantLoad
from repro.workloads import bursty_trace, diurnal_trace

#: Overload scenario: offered load as a multiple of rung-0 fleet
#: capacity, with the same MMPP burst shape as the overload bench.
OVERLOAD = 2.0
BURST_FACTOR = 6.0
BURST_FRACTION = 0.3

#: Diurnal scenario: mean load fraction of capacity, swing amplitude
#: and period (compressed-time day/night cycle).
DIURNAL_LOAD = 0.6
DIURNAL_AMPLITUDE = 0.6
DIURNAL_PERIOD_S = 4.0

#: Chaos scenario: survivable storm plus a seeded fault schedule.
CHAOS_OVERLOAD = 1.5
CHAOS_SEED = 7

#: Interactive satisfaction curve: imperceptible under 100 ms, hard
#: deadline at 500 ms.
REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)

#: Requests per scenario (shrunk under --quick).
N_REQUESTS = 5000
QUICK_N_REQUESTS = 3000

#: Acceptance bar: predictive energy may exceed reactive by at most
#: this fraction on the overload trace (measured: it *saves* ~10%).
MAX_ENERGY_REGRESSION = 0.05

#: Overload/chaos controller: a smooth EWMA (low alpha, so the level
#: decays slowly through burst gaps) on a fine tick, with enough
#: headroom to hold deep rungs between storms -- the reactive
#: hysteresis pays the ladder climb at every burst onset, the
#: predictive plane doesn't.
STORM_CONTROLLER = ControllerConfig(
    kind="ewma", tick_s=0.05, headroom=2.0, alpha=0.3
)

#: Diurnal controller: seasonal Holt-Winters, one season per trace
#: period (period_s / tick_s ticks).
DIURNAL_CONTROLLER = ControllerConfig(
    kind="holt-winters", tick_s=0.25,
    season_ticks=int(DIURNAL_PERIOD_S / 0.25),
)


def _fleet():
    spec = ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
    )
    fleet = FleetManager(alexnet(), spec, architectures=[K20C, JETSON_TX1])
    fleet.deploy_all()
    return spec, fleet


def _loads(spec, trace):
    tenant = Tenant(spec.name, REQUIREMENT, priority=1)
    return [TenantLoad(tenant, trace)]


def _chaos_faults(horizon_s):
    """Seeded chaos: an outage pinned to the SoC-preferred TX1 plus a
    thermal throttle on the K20c."""
    mobile = generate_fault_trace(
        platforms=["TX1"],
        horizon_s=horizon_s,
        config=FaultTraceConfig(
            outages=1,
            outage_duration_s=0.30 * horizon_s,
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
        ),
        seed=CHAOS_SEED + 1,
    )
    return mobile.merged_with(server)


def _assert_conserved(label, report, generated):
    """Every generated request is terminal exactly once."""
    rids = [record.request.rid for record in report.completed]
    rids += [record.request.rid for record in report.rejected]
    assert len(rids) == generated, (
        "%s: %d terminal records for %d generated requests"
        % (label, len(rids), generated)
    )
    assert len(set(rids)) == len(rids), (
        "%s: a request id is terminal twice" % label
    )


def reproduce(n_requests=N_REQUESTS):
    spec, fleet = _fleet()
    capacity = fleet.capacity_rps()

    overload = run_whatif(
        fleet,
        _loads(spec, bursty_trace(
            n_requests=n_requests,
            rate_hz=OVERLOAD * capacity,
            burst_factor=BURST_FACTOR,
            burst_fraction=BURST_FRACTION,
            seed=42,
        )),
        controller=STORM_CONTROLLER,
    )
    # Determinism bar: a second same-seed what-if is bit-identical.
    rerun = run_whatif(
        fleet,
        _loads(spec, bursty_trace(
            n_requests=n_requests,
            rate_hz=OVERLOAD * capacity,
            burst_factor=BURST_FACTOR,
            burst_fraction=BURST_FRACTION,
            seed=42,
        )),
        controller=STORM_CONTROLLER,
    )
    diurnal = run_whatif(
        fleet,
        _loads(spec, diurnal_trace(
            n_requests=n_requests,
            base_rate_hz=DIURNAL_LOAD * capacity,
            amplitude=DIURNAL_AMPLITUDE,
            period_s=DIURNAL_PERIOD_S,
            seed=42,
        )),
        controller=DIURNAL_CONTROLLER,
    )
    chaos_trace = bursty_trace(
        n_requests=n_requests,
        rate_hz=CHAOS_OVERLOAD * capacity,
        burst_factor=BURST_FACTOR,
        burst_fraction=BURST_FRACTION,
        seed=42,
    )
    chaos = run_whatif(
        fleet,
        _loads(spec, chaos_trace),
        config=RouterConfig(resilience=True),
        controller=STORM_CONTROLLER,
        faults=_chaos_faults(float(chaos_trace.arrivals_s[-1])),
    )

    scenarios = [
        ("overload", overload),
        ("diurnal", diurnal),
        ("chaos", chaos),
    ]
    rows = []
    for label, outcome in scenarios:
        for mode, summary in (
            ("reactive", outcome.reactive_summary),
            ("predictive", outcome.predictive_summary),
        ):
            rows.append((
                label,
                mode,
                "%.1f%%" % (summary["deadline_hit_rate"] * 100),
                "%d" % summary["n_rejected"],
                "%.3f" % summary["p99_latency_s"],
                "%.1f" % summary["energy_j"],
                "%.3f" % summary["mean_soc"],
            ))
    text = format_table(
        ["scenario", "mode", "hit-rate", "rejected", "p99 s",
         "energy J", "mean SoC"],
        rows,
        title="Reactive vs predictive serving (AlexNet, K20c + TX1, "
        "%d requests per scenario)" % n_requests,
    )
    return text, scenarios, rerun


@pytest.mark.benchmark(group="control")
def test_bench_control_whatif(benchmark, quick):
    n = QUICK_N_REQUESTS if quick else N_REQUESTS
    text, scenarios, rerun = run_once(benchmark, lambda: reproduce(n))
    emit("control_whatif", text)
    emit_json(
        "BENCH_control_whatif",
        {label: outcome.to_dict() for label, outcome in scenarios},
    )

    outcomes = dict(scenarios)
    for label, outcome in scenarios:
        # Each scenario offers one tenant's trace of n requests.
        _assert_conserved("%s reactive" % label, outcome.reactive, n)
        _assert_conserved("%s predictive" % label, outcome.predictive, n)

    overload = outcomes["overload"]
    reactive = overload.reactive_summary
    predictive = overload.predictive_summary
    assert predictive["deadline_hit_rate"] >= reactive["deadline_hit_rate"], (
        "predictive hit-rate %.4f below reactive %.4f under overload"
        % (predictive["deadline_hit_rate"], reactive["deadline_hit_rate"])
    )
    if not quick:
        # Full size must show a strict win, not a tie.
        assert (
            predictive["deadline_hit_rate"] > reactive["deadline_hit_rate"]
        ), "predictive hit-rate merely ties reactive at full size"
    assert predictive["energy_j"] <= reactive["energy_j"] * (
        1.0 + MAX_ENERGY_REGRESSION
    ), (
        "predictive energy %.1f J exceeds reactive %.1f J by more "
        "than %.0f%%"
        % (predictive["energy_j"], reactive["energy_j"],
           MAX_ENERGY_REGRESSION * 100)
    )

    assert overload.fingerprint() == rerun.fingerprint(), (
        "same-seed what-if runs diverged"
    )
    assert (
        overload.predictive_fingerprint == rerun.predictive_fingerprint
    ), "same-seed predictive router runs diverged"
