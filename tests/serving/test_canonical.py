"""The fingerprint's canonical writer against its dict-based oracle.

``RouterReport.fingerprint`` writes its bytes from the records'
columns; :mod:`tests.serving.oracle` renders them the old way, through
``to_dict`` and ``json.dumps``.  Every kind of report must agree byte
for byte: columnar and event-loop runs, merged, qualified and stripped
reports, and a hand-built report of awkward floats and names.  A
report is read-only: its fields cannot be assigned, and the record
lists it returns are new on every read, so changing one changes
nothing.  A columnar report's fingerprint and ``to_dict``, a pickle of
it, the obs derived from it and a sharded coordinator's merge build no
per-request object at all.
"""

import gc
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.control import ControllerConfig
from repro.core.satisfaction import SoCBreakdown, TimeRequirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.obs import Instrumentation
from repro.serving import (
    CompletedRequest,
    FleetCoordinator,
    FleetSpec,
    PlatformStats,
    RejectedRequest,
    Request,
    RequestRouter,
    RouterConfig,
    RouterEvent,
    RouterReport,
    Tenant,
    TenantLoad,
    vec_router,
)
from repro.serving.ledger import Ledger
from repro.serving.shard.merge import qualify_report, strip_requests
from repro.workloads import bursty_trace, pareto_trace
from tests.serving.event_log import ledger_of, of_kind
from tests.serving.event_loop import run_events
from tests.serving.oracle import checked_fingerprint, oracle_fingerprint


def _storm(fleet, tenants, n_requests, load, seed=42):
    """Bursts from every tenant but the last (``n_requests``, half as
    many, ...) sharing 80% of the offered rate, and a Pareto tail of a
    quarter as many requests from the last.  ``load`` is the offered
    rate over rung-0 capacity."""
    rate = load * fleet.capacity_rps()
    *bursty, tail = tenants
    loads = [
        TenantLoad(tenant, bursty_trace(
            n_requests=n_requests // (1 + index),
            rate_hz=0.8 * rate / len(bursty), seed=seed + index,
        ))
        for index, tenant in enumerate(bursty)
    ]
    loads.append(TenantLoad(tail, pareto_trace(
        n_requests=max(1, n_requests // 4), rate_hz=0.2 * rate,
        seed=seed + len(bursty),
    )))
    return loads


#: Short queues at eight times capacity: saturation bursts.
OVERLOAD = RouterConfig(queue_limit=4)


@pytest.fixture
def tenants(snappy_tenant, background_tenant):
    """A real-time tenant whose 8 ms deadline only deeper rungs meet
    (admission degrades, infeasible rejections), an interactive one
    and a deadline-free one."""
    tight = Tenant("tight", TimeRequirement.real_time(0.008), priority=2)
    return [snappy_tenant, tight, background_tenant]


@pytest.fixture
def loads(fleet, tenants):
    return _storm(fleet, tenants, 160, load=8.0)


class TestReportKinds:
    def test_columnar_run(self, fleet, loads):
        """The fault-free ledger row kinds -- enqueue, reject
        (saturated and infeasible), dispatch, complete, degrade,
        restore and the engine's compile and cache_hit relays --
        saturation bursts included; the event loop's scalar SoC path
        pins the column arithmetic."""
        router = RequestRouter(fleet, OVERLOAD)
        report = router.run(loads)
        fingerprint = checked_fingerprint(report)
        assert fingerprint == run_events(router, loads).fingerprint()
        reasons = {record.reason for record in report.rejected}
        assert reasons == {"saturated", "infeasible"}
        assert of_kind(report.events, "degrade")

    def test_event_loop_with_chaos_and_obs(self, fleet, deployments, loads):
        horizon = max(float(load.trace.arrivals_s[-1]) for load in loads)
        faults = generate_fault_trace(
            sorted(deployments), horizon,
            FaultTraceConfig(
                outages=1, outage_duration_s=0.25 * horizon,
                sm_failures=1, sm_failure_duration_s=0.25 * horizon,
                transients=3,
            ),
            seed=7,
        )
        report = RequestRouter(fleet, OVERLOAD).run(
            loads, faults=faults, obs=Instrumentation()
        )
        assert report.resilience is not None and report.obs is not None
        assert of_kind(report.events, "fault")
        checked_fingerprint(report)

    def test_event_loop_with_controller(self, fleet, loads):
        report = RequestRouter(fleet, OVERLOAD).run(
            loads, controller=ControllerConfig(kind="ewma").build()
        )
        assert report.control is not None
        checked_fingerprint(report)

    def test_merged_qualified_and_stripped(self, fleet, tenants):
        leaves = []
        for shard in range(2):
            renamed = [
                Tenant("%s-%d" % (tenant.name, shard), tenant.requirement,
                       tenant.priority)
                for tenant in tenants
            ]
            leaf_loads = _storm(
                fleet, renamed, 120, load=8.0, seed=10 * shard
            )
            leaves.append(qualify_report(
                RequestRouter(fleet, OVERLOAD).run(leaf_loads), shard
            ))
        stripped = strip_requests(
            leaves[1], [record.request.rid for record in leaves[1].rejected]
        )
        merged = RouterReport.merge([leaves[0], stripped])
        for report in (*leaves, stripped, merged):
            checked_fingerprint(report)


class TestReadListsAreCopies:
    def test_changed_lists_change_nothing(self, fleet, loads):
        """Each read of ``completed``, ``rejected`` or ``events`` is a
        new list built from the ledger: changing one changes no count,
        no ``to_dict()`` and no fingerprint, and the columns and rows
        stay the report's storage."""
        report = RequestRouter(fleet, OVERLOAD).run(loads)
        ledger = vars(report.ledger).copy()
        pristine = (
            report.n_completed, report.n_rejected, report.to_dict(),
            report.fingerprint(),
        )
        for name in ("completed", "rejected", "events"):
            records = getattr(report, name)
            assert records and records is not getattr(report, name)
            assert records == getattr(report, name)
        report.completed.reverse()
        report.rejected.pop()
        report.events.pop()
        assert (
            report.n_completed, report.n_rejected, report.to_dict(),
            checked_fingerprint(report),
        ) == pristine
        assert vars(report.ledger) == ledger

    def test_fields_cannot_be_assigned(self, fleet, loads):
        report = RequestRouter(fleet, OVERLOAD).run(loads)
        before = report.fingerprint()
        for name, value in (
            ("completed", []), ("rejected", []), ("events", []),
            ("obs", {}), ("horizon_s", 0.0), ("platforms", []),
            ("resilience", None), ("control", {}), ("ledger", Ledger()),
        ):
            with pytest.raises(FrozenInstanceError):
                setattr(report, name, value)
        assert report.fingerprint() == before

    def test_copies_build_no_records(self, fleet, loads, monkeypatch):
        """``dataclasses.replace`` copies the ledger without building a
        record (a tampered shard result still fingerprints apart), and
        a copy given a smaller ledger leaves the original alone."""
        report = RequestRouter(fleet, OVERLOAD).run(loads)
        built = _count_records(monkeypatch)
        tampered = replace(report, horizon_s=report.horizon_s + 1.0)
        assert tampered.fingerprint() != report.fingerprint()
        stripped = replace(report, ledger=report.ledger.without(
            report.ledger.columns("rejected")["rid"]
        ))
        assert built == []
        assert report.n_rejected > 0 == stripped.n_rejected


def _hand_built(first_finish_s: float = -0.0) -> RouterReport:
    """Floats and names ``json.dumps`` renders specially, and record
    fields of unexpected types."""
    tenant = Tenant(
        'q"uo\\te %s é–☃', TimeRequirement(0.1, 0.5), priority=2
    )
    plain = Tenant("plain", TimeRequirement(0.1, 0.5))
    request = [
        Request(rid=rid, tenant=tenant if rid % 2 else plain,
                arrival_s=arrival)
        for rid, arrival in enumerate((0.0, -0.0, 1.5, math.inf, 2.0))
    ]
    completed = [
        CompletedRequest(
            request=request[0], platform="P%s", level=0, batch=1,
            start_s=0.0, finish_s=first_finish_s, entropy=math.nan,
            soc=SoCBreakdown(-0.0, 1.0, 0.5, -0.0),
        ),
        CompletedRequest(
            request=request[1], platform='P"1', level=1, batch=2,
            start_s=-0.0, finish_s=math.inf, entropy=0.0,
            soc=SoCBreakdown(0.0, math.nan, 0.5, -math.inf),
        ),
        CompletedRequest(
            request=request[2], platform="P%s", level=True, batch=2,
            start_s=1, finish_s=1e-7, entropy=1e22,
            soc=SoCBreakdown(1.0, 0.25, 1e-300, 2.5e299),
        ),
    ]
    rejected = [
        RejectedRequest(request=request[3], reason="saturated"),
        RejectedRequest(request=request[4], reason=None),
    ]
    events = [
        RouterEvent(0, -0.0, "enqueue", tenant.name, "P%s", (0,),
                    {"level": 0, "predicted_soc": math.nan,
                     "predicted_latency_s": -0.0}),
        RouterEvent(1, 0.0, "enqueue", "plain", 'P"1', [1],
                    {"level": 1, "predicted_soc": 0.0,
                     "predicted_latency_s": 0.0}),
        RouterEvent(2, math.inf, "reject", None, None, (3,),
                    {"reason": "saturated", 'odd "%s" key': [1, None]}),
        RouterEvent(3, 1.5, "fault", None, "P%s", (),
                    {"episode": 1, "fault_kind": None, "scale": 1e-5}),
        RouterEvent(4, 2.0, "compile", None, "P%s", (), {"batch": 4}),
        RouterEvent(5, 2.0, "dispatch", None, "P%s", (0, 1, 2),
                    {"batch": 3, "capacity": 4, "finish_s": 2.5,
                     "level": 0}),
    ]
    return RouterReport(
        platforms=[PlatformStats(
            "P%s", "gpu", 1, 3, -0.0, math.nan, 0.5, 0.0, 1, 0,
        )],
        horizon_s=math.inf,
        obs={"span_counts": {"compile": 2, "run": 1}, "metrics": {},
             "trace_fingerprint": "x"},
        control={"kind": "ewma", "prewarm": {"requested": 3, "hits": 1}},
        ledger=ledger_of(completed, rejected, events),
    )


class TestAwkwardValues:
    def test_hand_built_report_matches_oracle(self):
        checked_fingerprint(_hand_built())

    def test_negative_zero_and_zero_hash_apart(self):
        """``finish_s`` is an all-float column, rendered through the
        per-call memo, which has seen ``0.0`` in ``arrival_s``."""
        report = _hand_built()
        flipped = _hand_built(first_finish_s=0.0)
        assert checked_fingerprint(flipped) != checked_fingerprint(report)


def _count_records(monkeypatch, classes=(
    Request, CompletedRequest, RejectedRequest, RouterEvent,
)):
    """The names of every instance of ``classes`` constructed from
    here on (until ``monkeypatch.undo()``)."""
    built = []
    for cls in classes:
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestNoPerRequestObjects:
    def test_storm_fingerprint_and_render_build_no_records(
        self, fleet, snappy_tenant, background_tenant, monkeypatch,
    ):
        """A 10,000-request columnar run: ``fingerprint()`` and
        ``to_dict(include_events=False)`` construct no ``Request``,
        ``CompletedRequest``, ``RejectedRequest`` or ``RouterEvent``."""
        loads = _storm(
            fleet, [snappy_tenant, background_tenant], 8000, load=3.0
        )
        report = RequestRouter(fleet).run(loads)
        built = _count_records(monkeypatch)
        fingerprint = report.fingerprint()
        summary = report.to_dict(include_events=False)["summary"]
        assert built == []
        assert summary["offered"] == 10_000
        assert summary["rejected"] > 0
        monkeypatch.undo()
        assert fingerprint == oracle_fingerprint(report)

    def test_pickling_a_run_builds_no_records(
        self, fleet, deployments, loads, monkeypatch
    ):
        """A spawned shard pickles its report: the ledger crosses, no
        record is built on either side, and the copy fingerprints the
        same."""
        horizon = max(float(load.trace.arrivals_s[-1]) for load in loads)
        faults = generate_fault_trace(
            sorted(deployments), horizon,
            FaultTraceConfig(outages=1, outage_duration_s=0.25 * horizon),
            seed=7,
        )
        report = RequestRouter(fleet, OVERLOAD).run(loads, faults=faults)
        built = _count_records(monkeypatch)
        clone = pickle.loads(pickle.dumps(report))
        assert built == []
        monkeypatch.undo()
        assert clone.fingerprint() == checked_fingerprint(report)

    def test_instrumented_chaos_run_builds_no_records(
        self, fleet, deployments, loads, monkeypatch
    ):
        """Deriving obs from a chaos run, then fingerprinting and
        rendering it, builds no request, record or event object."""
        horizon = max(float(load.trace.arrivals_s[-1]) for load in loads)
        faults = generate_fault_trace(
            sorted(deployments), horizon,
            FaultTraceConfig(
                outages=1, outage_duration_s=0.25 * horizon, transients=3,
            ),
            seed=7,
        )
        report = RequestRouter(fleet, OVERLOAD).run(loads, faults=faults)
        obs = Instrumentation()
        built = _count_records(monkeypatch)
        obs.record_run(report)
        report = replace(report, obs=obs.report_section())
        report.fingerprint()
        report.to_dict(include_events=False)
        assert built == []
        assert report.obs["n_spans"] > report.n_offered

    def test_controlled_chaos_run_builds_no_request(
        self, fleet, deployments, loads, monkeypatch
    ):
        """The loop feeds a control plane each arrival's tenant and the
        retry policy each retried request's deadline from the arrival
        columns: ``run`` builds no ``Request``."""
        horizon = max(float(load.trace.arrivals_s[-1]) for load in loads)
        faults = generate_fault_trace(
            sorted(deployments), horizon,
            FaultTraceConfig(
                outages=1, outage_duration_s=0.25 * horizon, transients=3,
            ),
            seed=7,
        )
        config = ControllerConfig(kind="ewma", tick_s=horizon / 8)
        router = RequestRouter(fleet, OVERLOAD)
        built = _count_records(monkeypatch, (Request,))
        report = router.run(loads, faults=faults, controller=config.build())
        assert built == []
        monkeypatch.undo()
        assert report.resilience.retries > 0
        assert report.control["ticks"] > 0
        assert checked_fingerprint(report) == run_events(
            router, loads, faults=faults, controller=config.build()
        ).fingerprint()

    def test_sharded_coordinator_op_builds_no_records(
        self, spec, snappy_tenant, background_tenant, monkeypatch
    ):
        """A 2-shard inline coordinator op -- run, validate, qualify,
        merge, fingerprint, render -- builds no request, record or
        event object, with or without a control plane."""
        fleet = FleetSpec(
            network="alexnet", spec=spec, gpus=("k20c", "tx1"),
            max_tuning_iterations=8,
        )
        shard_loads = [
            [
                TenantLoad(
                    Tenant("%s-s%d" % (tenant.name, shard),
                           tenant.requirement, tenant.priority),
                    bursty_trace(n_requests=150, rate_hz=1000.0,
                                 seed=shard * 10 + index),
                )
                for index, tenant in enumerate(
                    (snappy_tenant, background_tenant)
                )
            ]
            for shard in range(2)
        ]
        for controller in (None, ControllerConfig(kind="ewma")):
            coordinator = FleetCoordinator(
                fleet, OVERLOAD, n_shards=2, inline=True,
                controller=controller,
            )
            built = _count_records(monkeypatch)
            outcome = coordinator.run(shard_loads=shard_loads)
            report = outcome.report
            report.fingerprint()
            report.to_dict(include_events=False)
            assert built == []
            monkeypatch.undo()
            assert report.n_offered == 600 and report.n_rejected > 0


class TestFinishedReport:
    def test_one_shard_leaves_its_report_alone(self, spec, snappy_tenant):
        """An instrumented coordinator run folds the ``supervisor_*``
        series into a copy of the merged report: the merged report has
        them and no shard's report does, with one shard (where the
        merge is the shard's report) as with two."""
        fleet = FleetSpec(
            network="alexnet", spec=spec, gpus=("k20c",),
            max_tuning_iterations=2,
        )

        def supervisor_series(report):
            return [
                series for series in report.obs["metrics"]
                if series.startswith("supervisor_")
            ]

        for n_shards in (1, 2):
            outcome = FleetCoordinator(
                fleet, RouterConfig(), n_shards=n_shards, inline=True,
            ).run(
                shard_loads=[
                    [TenantLoad(
                        Tenant("%s-%d" % (snappy_tenant.name, shard),
                               snappy_tenant.requirement),
                        bursty_trace(n_requests=20, rate_hz=25.0, seed=shard),
                    )]
                    for shard in range(n_shards)
                ],
                instrument=True,
            )
            assert len(supervisor_series(outcome.report)) == 10
            assert len(outcome.shard_reports) == n_shards
            for shard_report in outcome.shard_reports:
                assert supervisor_series(shard_report) == []

    def test_report_keeps_no_arrival_columns(self, fleet, loads, monkeypatch):
        """``run`` returns a finished report: a plain ledger, built
        before ``run`` returns, and nothing in the report keeps the
        run's ``ArrivalColumns`` alive."""
        made = []

        class Recording(vec_router.ArrivalColumns):
            def __init__(self, loads):
                super().__init__(loads)
                made.append(weakref.ref(self))

        monkeypatch.setattr(vec_router, "ArrivalColumns", Recording)
        report = RequestRouter(fleet, OVERLOAD).run(loads)
        gc.collect()
        assert len(made) == 1
        assert made[0]() is None
        assert type(report.ledger) is Ledger
        monkeypatch.undo()
        assert report.fingerprint() == checked_fingerprint(report)
