"""Pickle round-trips for everything that crosses the spawn boundary,
plus real worker-process coordinator runs.

Workers fork from a preloaded forkserver where the platform has one
and spawn elsewhere; either way ``multiprocessing`` serializes the
whole :class:`ShardSpec` (fleet description, router config, tenant
loads, fault trace) into each worker.  These tests pin that contract
so a future unpicklable field fails here, not inside a worker
traceback, and run both start methods against the inline run.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from multiprocessing.context import BaseContext
from unittest import mock

import numpy as np
import pytest

import repro
from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.faults import (
    FaultEvent,
    FaultTrace,
    FaultTraceConfig,
    generate_fault_trace,
)
from repro.resilience import (
    ProcFaultPlan,
    ShardFailure,
    ShardRunRecord,
    SupervisionReport,
    SupervisorConfig,
)
from repro.resilience.supervisor import _worker_context
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    Request,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.report import RouterReport
from repro.serving.shard import ShardResult, ShardSpec
from repro.workloads import RequestTrace, bursty_trace

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


def _spec():
    return ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
    )


def _loads(name="pickled", n=10, seed=3):
    return (
        TenantLoad(
            Tenant(name, _REQUIREMENT, priority=1),
            bursty_trace(n, 20.0, seed=seed),
        ),
    )


class TestPickleRoundTrips:
    def test_router_config(self):
        config = RouterConfig(queue_limit=8, retry_limit=1, policy="soc")
        assert round_trip(config) == config

    def test_fault_event_and_trace(self):
        trace = FaultTrace([
            FaultEvent(time_s=1.0, kind="outage",
                       platform="s0/K20c", episode=1),
            FaultEvent(time_s=2.0, kind="restore",
                       platform="s0/K20c", episode=1),
        ])
        restored = round_trip(trace)
        assert list(restored) == list(trace)

    def test_generated_fault_trace(self):
        trace = generate_fault_trace(
            platforms=["K20c", "TX1"],
            horizon_s=10.0,
            config=FaultTraceConfig(outages=1, transients=2),
            seed=7,
        )
        assert list(round_trip(trace)) == list(trace)

    def test_request_trace(self):
        trace = bursty_trace(32, 25.0, seed=9)
        restored = round_trip(trace)
        assert np.array_equal(restored.arrivals_s, trace.arrivals_s)
        assert np.array_equal(restored.difficulty, trace.difficulty)

    def test_tenant_and_request(self):
        tenant = Tenant("alpha", _REQUIREMENT, priority=2)
        assert round_trip(tenant) == tenant
        request = Request(rid=4, tenant=tenant, arrival_s=1.5,
                          difficulty=1.2)
        assert round_trip(request) == request

    def test_tenant_load(self):
        (load,) = _loads()
        restored = round_trip(load)
        assert restored.tenant == load.tenant
        assert np.array_equal(
            restored.trace.arrivals_s, load.trace.arrivals_s
        )

    def test_fleet_spec(self):
        fleet = FleetSpec(
            network="alexnet", spec=_spec(), gpus=("k20c", "tx1"),
            max_tuning_iterations=4,
        )
        assert round_trip(fleet) == fleet

    def test_shard_spec(self):
        spec = ShardSpec(
            shard_id=1,
            n_shards=2,
            fleet=FleetSpec(
                network="alexnet", spec=_spec(), gpus=("k20c",),
            ),
            config=RouterConfig(),
            loads=_loads(),
            faults=FaultTrace([
                FaultEvent(time_s=1.0, kind="transient", platform="K20c"),
            ]),
            seed=17,
            instrument=True,
        )
        restored = round_trip(spec)
        assert restored.shard_id == spec.shard_id
        assert restored.seed == spec.seed
        assert restored.config == spec.config
        assert restored.fleet == spec.fleet
        assert len(restored.loads) == 1

    def test_empty_request_trace(self):
        trace = RequestTrace(
            arrivals_s=np.array([], dtype=float),
            difficulty=np.array([], dtype=float),
        )
        assert round_trip(trace).n_requests == 0

    def test_proc_fault_plan(self):
        plan = ProcFaultPlan(
            seed=11, crash_rate=0.2, hang_rate=0.1,
            forced=((1, "crash"), (2, "hang")),
            max_faulty_attempts=2, hang_s=30.0,
        )
        restored = round_trip(plan)
        assert restored == plan
        assert restored.decide(1, 1) == plan.decide(1, 1)

    def test_supervisor_config(self):
        config = SupervisorConfig(
            timeout_s=45.0, max_attempts=2, witness=True,
            kill_grace_s=1.0,
        )
        assert round_trip(config) == config

    def test_shard_failure_and_records(self):
        failure = ShardFailure(
            shard_id=1, attempt=2, kind="timeout",
            detail="killed at 30s", exitcode=-9, wall_s=30.2,
        )
        assert round_trip(failure) == failure
        record = ShardRunRecord(
            shard_id=1, status="retried", attempts=2,
            failures=(failure,),
        )
        assert round_trip(record) == record
        report = SupervisionReport(records=(record,))
        assert round_trip(report).counters() == report.counters()

    def test_shard_result_with_declared_fingerprint(self):
        report = RouterReport(horizon_s=2.0)
        result = ShardResult(
            shard_id=1, seed=9, report=report,
            declared_fingerprint=report.fingerprint(),
        )
        restored = round_trip(result)
        assert (restored.shard_id, restored.seed) == (1, 9)
        assert (
            restored.declared_fingerprint
            == restored.report.fingerprint()
        )


class TestSpawnExecution:
    @pytest.mark.parametrize("tracked", [True, False],
                             ids=["chaos-obs", "plain"])
    def test_spawn_matches_inline(self, tracked):
        """One real worker-process run: bit-identical to inline.  Every
        worker runs the columnar loop and pickles its report back as
        the report's ledger, columns and rows, with no record built;
        the chaos-obs case adds faults and derived spans."""
        fleet = FleetSpec(
            network="alexnet", spec=_spec(), gpus=("k20c", "tx1"),
            max_tuning_iterations=4,
        )
        shard_loads = [
            list(_loads("t0", n=8, seed=1)),
            list(_loads("t1", n=8, seed=2)),
        ]
        shard_faults = [
            FaultTrace([
                FaultEvent(time_s=0.05, kind="transient", platform="K20c"),
            ]),
            None,
        ] if tracked else None

        def run(inline):
            return FleetCoordinator(
                fleet, RouterConfig(), n_shards=2, seed=11,
                inline=inline,
            ).run(shard_loads, shard_faults=shard_faults,
                  instrument=tracked)

        spawned = run(inline=False)
        inline = run(inline=True)
        assert (
            spawned.report.fingerprint() == inline.report.fingerprint()
        )
        assert spawned.report.n_offered == 16
        if tracked:
            assert (
                spawned.buffer.fingerprint()
                == inline.buffer.fingerprint()
            )
        assert spawned.seeds == inline.seeds


def _crash_run(inline):
    """A two-shard coordinator run whose shard 1 crashes on its first
    attempt (a real ``os._exit`` in a worker process)."""
    fleet = FleetSpec(
        network="alexnet", spec=_spec(), gpus=("k20c", "tx1"),
        max_tuning_iterations=4,
    )
    return FleetCoordinator(
        fleet, RouterConfig(), n_shards=2, seed=11, inline=inline,
        supervision=SupervisorConfig(timeout_s=60.0),
        proc_faults=ProcFaultPlan(seed=3, forced=((1, "crash"),)),
    ).run([list(_loads("t0", n=8, seed=1)), list(_loads("t1", n=8, seed=2))])


def _failures(outcome):
    return [
        (failure.shard_id, failure.attempt, failure.kind, failure.exitcode)
        for failure in outcome.supervision.failures
    ]


class TestStartMethods:
    """Workers start from a preloaded forkserver where
    ``get_all_start_methods`` offers one and by spawn where it does
    not; the merged bits and the supervision history are the inline
    run's either way."""

    @pytest.fixture(scope="class")
    def inline(self):
        return _crash_run(inline=True)

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_workers_match_inline(self, inline, method):
        offered = [
            name for name in multiprocessing.get_all_start_methods()
            if method == "forkserver" or name != "forkserver"
        ]
        if method not in offered:
            pytest.skip("this platform has no %s start method" % method)
        used = []
        get_context = multiprocessing.get_context

        def spy(name=None):
            used.append(name)
            return get_context(name)

        with mock.patch.object(
            multiprocessing, "get_all_start_methods", lambda: offered
        ), mock.patch.object(multiprocessing, "get_context", spy):
            outcome = _crash_run(inline=False)
        assert used == [method]
        assert outcome.report.fingerprint() == inline.report.fingerprint()
        assert outcome.statuses == inline.statuses == ("ok", "retried")
        assert _failures(outcome) == _failures(inline) == [
            (1, 1, "crashed", ProcFaultPlan().crash_exit_code),
        ]


#: Run in a fresh interpreter: import the modules named in argv[1] as a
#: forkserver preloads them, then do what a forked worker does (import
#: its entry, unpickle a spec, run it) and print every ``repro`` module
#: that imported only then.
_FIRST_RUN = """
import importlib, json, pickle, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
before = set(sys.modules)
from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.resilience.supervisor import _supervised_entry
from repro.serving import FleetSpec, RouterConfig, Tenant, TenantLoad
from repro.serving.shard import ShardSpec, run_shard
from repro.workloads import bursty_trace
spec = ShardSpec(
    shard_id=0, n_shards=1,
    fleet=FleetSpec(
        network="alexnet",
        spec=ApplicationSpec("a", TaskClass.INTERACTIVE, entropy_slack=0.3),
        gpus=("k20c",), max_tuning_iterations=2,
    ),
    config=RouterConfig(),
    loads=(TenantLoad(
        Tenant("t", TimeRequirement(0.1, 0.5), priority=1),
        bursty_trace(10, 25.0, seed=1),
    ),),
)
run_shard(pickle.loads(pickle.dumps(spec)))
print(json.dumps(sorted(
    name for name in set(sys.modules) - before if name.startswith("repro")
)))
"""


class TestPreload:
    def test_a_worker_imports_nothing_the_server_did_not(self):
        """The forkserver preloads the worker's module and the kernel
        scorer tuning imports lazily, so a forked worker's first run
        imports no ``repro`` module of its own."""
        preloads = []
        with mock.patch.object(
            multiprocessing, "get_all_start_methods",
            lambda: ["fork", "spawn", "forkserver"],
        ), mock.patch.object(
            BaseContext, "set_forkserver_preload",
            lambda context, names: preloads.append(list(names)),
        ):
            _worker_context()
        assert preloads == [
            ["repro.serving.shard.worker", "repro.analysis.vec_score"]
        ]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        late = subprocess.run(
            [sys.executable, "-c", _FIRST_RUN, ",".join(preloads[0])],
            env=dict(os.environ, PYTHONPATH=src), check=True,
            capture_output=True, text=True, timeout=300,
        ).stdout
        assert json.loads(late) == []
