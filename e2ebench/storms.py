"""The three serve-fleet recipes, driven through the public library API.

Every workload shares one fleet (AlexNet on K20c + TX1, the
``serve-fleet`` ``interactive`` spec) and one tenant pair: a bursty
MMPP interactive tenant at 80% of the offered rate and a Pareto
background tenant at 20%, offered at 2.0x rung-0 capacity.  Inputs
are a pure function of the seed.  One *op* is what a ``serve-fleet``
call does after start-up: route, fingerprint, render the JSON.

Only the default public path is used: no router backend is named and
no underscore-prefixed ``repro`` name is imported.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.control import ControllerConfig
from repro.core.user_input import ApplicationSpec, TaskClass
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.obs import (
    Instrumentation,
    chrome_trace_json,
    metrics_to_json,
    validate_chrome_trace,
)
from repro.serving import RequestRouter, RouterConfig, Tenant, TenantLoad
from repro.serving.shard import (
    FleetCoordinator,
    FleetSpec,
    shard_label,
    shard_seed,
)
from repro.workloads import bursty_trace, pareto_trace

from spans import EXPORT_SPAN, OBS_EXPORT_SPAN, OBS_HOOK_SPAN, Tracer

#: Offered load as a multiple of rung-0 fleet capacity (serve-fleet
#: ``--load`` default).
LOAD = 2.0
#: Seed of the fault schedule (serve-fleet ``--chaos-seed`` default).
CHAOS_SEED = 7
#: Traffic draws per run: ops cycle through the seeds ``seed``,
#: ``seed + 100``, ... so a run's figures average over several draws
#: of the same traffic mix instead of one draw's bursts and fault hits.
DRAWS = 4
DRAW_STRIDE = 100


def draw_seeds(seed: int) -> List[int]:
    return [seed + DRAW_STRIDE * draw for draw in range(DRAWS)]


def interactive_spec() -> ApplicationSpec:
    """The application spec ``serve-fleet`` deploys."""
    return ApplicationSpec(
        "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
        entropy_slack=0.30,
    )


def fleet_spec() -> FleetSpec:
    return FleetSpec(
        network="alexnet", spec=interactive_spec(), gpus=("k20c", "tx1")
    )


def offered_rate_hz(fleet) -> float:
    """``LOAD`` times the fleet's rung-0 capacity (serve-fleet's probe)."""
    capacity = 0.0
    for deployment in fleet.deploy_all().values():
        entry = deployment.current_entry
        execution = deployment.engine.execute(
            entry.compiled,
            power_gating=deployment.power_gating,
            use_priority_sm=deployment.use_priority_sm,
        )
        capacity += entry.compiled.batch / execution.total_time_s
    return LOAD * capacity


def tenant_loads(
    requests: int,
    offered_hz: float,
    seed: int,
    background_seed: int,
    suffix: str = "",
) -> List[TenantLoad]:
    """The interactive/background pair ``serve-fleet`` offers."""
    interactive = Tenant.from_spec(interactive_spec(), priority=1)
    background = Tenant.from_spec(
        ApplicationSpec("background", TaskClass.BACKGROUND), priority=0
    )
    if suffix:
        interactive = replace(interactive, name="interactive-" + suffix)
        background = replace(background, name="background-" + suffix)
    return [
        TenantLoad(
            interactive,
            bursty_trace(
                n_requests=requests, rate_hz=0.8 * offered_hz, seed=seed
            ),
        ),
        TenantLoad(
            background,
            pareto_trace(
                n_requests=max(1, requests // 4),
                rate_hz=0.2 * offered_hz,
                seed=background_seed,
            ),
        ),
    ]


def chaos_trace(loads: Sequence[TenantLoad], platforms: Sequence[str]):
    """serve-fleet ``--chaos``: one episode of each structural fault
    lasting a quarter of the horizon, plus three transients."""
    horizon = max(
        float(load.trace.arrivals_s[-1])
        for load in loads
        if load.trace.n_requests
    )
    quarter = 0.25 * horizon
    return generate_fault_trace(
        platforms=sorted(platforms),
        horizon_s=horizon,
        config=FaultTraceConfig(
            outages=1,
            outage_duration_s=quarter,
            sm_failures=1,
            sm_failure_duration_s=quarter,
            throttles=1,
            throttle_duration_s=quarter,
            bandwidth_degradations=1,
            bandwidth_duration_s=quarter,
            transients=3,
        ),
        seed=CHAOS_SEED,
    )


@dataclass
class Inputs:
    """Everything one op needs, built in set-up: one traffic draw."""

    #: The draw's seed (serve-fleet ``--seed``).
    seed: int
    fleet: object
    loads: Optional[List[TenantLoad]] = None
    shard_loads: Optional[List[List[TenantLoad]]] = None
    faults: Optional[object] = None

    @property
    def n_requests(self) -> int:
        groups = self.shard_loads
        if groups is None:
            groups = [self.loads]
        return sum(
            load.trace.n_requests for group in groups for load in group
        )


@dataclass
class OpResult:
    report: object
    fingerprint: str
    text: str
    #: Chrome trace + metrics JSON (``storm_traced`` only).
    exports: Optional[tuple] = None


def render(report, fingerprint: str, extra: Optional[dict] = None) -> str:
    """serve-fleet ``--json``'s document."""
    payload = report.to_dict(include_events=False)
    payload["fingerprint"] = fingerprint
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


class Storm:
    """``serve-fleet --requests N --json``: one router over one fleet."""

    name = "storm"
    dense_rids = False

    def __init__(self, requests: int) -> None:
        #: Interactive requests per tenant pair (serve-fleet
        #: ``--requests``); the background tenant adds a quarter.
        self.requests = requests

    def setup(self, seed: int) -> List[Inputs]:
        """Build the fleet, probe its capacity, and draw the traffic of
        every seed in :func:`draw_seeds` (one fleet serves them all)."""
        fleet = fleet_spec().build()
        offered = offered_rate_hz(fleet)
        return [self.draw(fleet, offered, seed) for seed in draw_seeds(seed)]

    def draw(self, fleet, offered: float, seed: int) -> Inputs:
        loads = tenant_loads(self.requests, offered, seed, seed + 1)
        return Inputs(seed=seed, fleet=fleet, loads=loads)

    def op(self, inputs: Inputs, tracer: Optional[Tracer]) -> OpResult:
        report = RequestRouter(inputs.fleet, RouterConfig()).run(inputs.loads)
        fingerprint = report.fingerprint()
        with _span(tracer, EXPORT_SPAN):
            text = render(report, fingerprint)
        return OpResult(report, fingerprint, text)

    def check_exports(self, result: OpResult) -> Optional[str]:
        return None


class StormSharded(Storm):
    """``serve-fleet --shards 2 --shard-inline --controller ewma
    --requests N --json``: per-shard fleets, merge, control planes."""

    name = "storm_sharded"
    dense_rids = True
    shards = 2

    def draw(self, fleet, offered: float, seed: int) -> Inputs:
        # The coordinator builds one fleet per shard inside every op;
        # the set-up fleet only probes capacity, as serve-fleet's does.
        shard_loads = [
            tenant_loads(
                self.requests,
                offered,
                shard_seed(seed, shard),
                shard_seed(seed + 1, shard),
                suffix=shard_label(shard),
            )
            for shard in range(self.shards)
        ]
        return Inputs(seed=seed, fleet=fleet, shard_loads=shard_loads)

    def op(self, inputs: Inputs, tracer: Optional[Tracer]) -> OpResult:
        outcome = FleetCoordinator(
            fleet_spec(),
            RouterConfig(),
            n_shards=self.shards,
            seed=inputs.seed,
            inline=True,
            controller=ControllerConfig(kind="ewma"),
        ).run(shard_loads=inputs.shard_loads)
        report = outcome.report
        fingerprint = report.fingerprint()
        with _span(tracer, EXPORT_SPAN):
            text = render(report, fingerprint, {"sharding": {
                "n_shards": self.shards,
                "seeds": list(outcome.seeds),
                "rehomed": outcome.rehomed,
                "dead_shards": list(outcome.dead_shards),
                "failover_target": outcome.failover_target,
                "statuses": list(outcome.statuses),
                "escalated": list(outcome.escalated),
                "escalation_target": outcome.escalation_target,
                "failures": [
                    failure.to_dict()
                    for failure in outcome.supervision.failures
                ],
                "supervision": outcome.supervision.to_dict(),
            }})
        return OpResult(report, fingerprint, text)


class StormTraced(Storm):
    """``serve-fleet --requests N --chaos --chrome-trace F
    --metrics-out F``: faults, resilience and every obs hook."""

    name = "storm_traced"

    def draw(self, fleet, offered: float, seed: int) -> Inputs:
        loads = tenant_loads(self.requests, offered, seed, seed + 1)
        faults = chaos_trace(loads, fleet.deploy_all())
        return Inputs(seed=seed, fleet=fleet, loads=loads, faults=faults)

    def op(self, inputs: Inputs, tracer: Optional[Tracer]) -> OpResult:
        obs = Instrumentation()
        if tracer is not None and tracer.recording:
            tracer.wrap_public_methods(obs, OBS_HOOK_SPAN)
        report = RequestRouter(inputs.fleet, RouterConfig()).run(
            inputs.loads, inputs.faults, obs=obs
        )
        with _span(tracer, OBS_EXPORT_SPAN):
            exports = (
                chrome_trace_json(obs.buffer), metrics_to_json(obs.metrics)
            )
        fingerprint = report.fingerprint()
        with _span(tracer, EXPORT_SPAN):
            text = render(report, fingerprint)
        return OpResult(report, fingerprint, text, exports)

    def check_exports(self, result: OpResult) -> Optional[str]:
        chrome, metrics = result.exports
        problems = validate_chrome_trace(json.loads(chrome))
        if problems:
            return "chrome trace invalid: %s" % problems[0]
        if not isinstance(json.loads(metrics), dict):
            return "metrics export is not a JSON object"
        return None


WORKLOADS = {cls.name: cls for cls in (Storm, StormSharded, StormTraced)}


def _span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def check(
    workload: Storm, inputs: Inputs, result: OpResult, expected: str
) -> Optional[str]:
    """Why an op's output is wrong, or None.

    The fingerprint pins every routing decision; the ledger checks
    (every generated request terminal exactly once) and the JSON
    summary hold whatever the seed.
    """
    report = result.report
    if result.fingerprint != expected:
        return "fingerprint %s, expected %s" % (result.fingerprint, expected)
    offered = inputs.n_requests
    if report.n_completed + report.n_rejected != report.n_offered:
        return "completed + rejected != offered"
    if report.n_offered != offered:
        return "%d terminal records for %d requests" % (
            report.n_offered, offered,
        )
    rids = [record.request.rid for record in report.completed]
    rids.extend(record.request.rid for record in report.rejected)
    if len(set(rids)) != len(rids):
        return "a request id is terminal twice"
    if workload.dense_rids and sorted(rids) != list(range(offered)):
        return "merged request ids are not dense"
    summary = json.loads(result.text)["summary"]
    if (summary["offered"], summary["completed"]) != (
        offered, report.n_completed,
    ):
        return "JSON summary disagrees with the report"
    return workload.check_exports(result)
