"""Each distinct layer is decided and simulated once per fleet build.

An :class:`OfflineCompiler` keeps one schedule per (layer, batch, that
layer's perforation rate) and one decision per GEMM shape (tuned
kernel, optTLP/optSM, one GEMM's predicted time); a
:class:`RuntimeKernelManager` simulates each distinct (kernel, shape,
optTLP, optSM) launch once; and every copy of an engine shares one
compiler and one manager per platform and mode.  These memos sit
below the engine, so plans, reports, engine stats and fingerprints are
what fresh compilers and managers give, float bits included.
"""

import dataclasses
from collections import Counter
from unittest import mock

import pytest

import repro.core.offline.compiler as compiler_module
import repro.core.runtime.scheduler as scheduler_module
from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.engine import ExecutionEngine
from repro.core.offline import OfflineCompiler, layer_time, tune_layer_kernel
from repro.core.offline.kernel_tuning import PCNN_BACKEND
from repro.core.runtime import RuntimeKernelManager
from repro.gpu import JETSON_TX1
from repro.nn import alexnet
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import shard_label, shard_seed
from repro.workloads import bursty_trace, pareto_trace

_INTERACTIVE = ApplicationSpec(
    "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
    entropy_slack=0.30,
)
_BACKGROUND = ApplicationSpec("background", TaskClass.BACKGROUND)


def _fleet_spec():
    return FleetSpec(
        network="alexnet", spec=_INTERACTIVE, gpus=("k20c", "tx1")
    )


def _shard_loads(n_requests=250, seed=42, load=2.0):
    """serve-fleet's interactive/background pair per shard, offered at
    ``load`` times rung-0 capacity (sized on a build of its own)."""
    offered = load * _fleet_spec().deployed().capacity_rps()
    loads = []
    for shard in range(2):
        label = shard_label(shard)
        interactive = Tenant.from_spec(_INTERACTIVE, priority=1)
        background = Tenant.from_spec(_BACKGROUND, priority=0)
        loads.append([
            TenantLoad(
                dataclasses.replace(interactive, name="interactive-" + label),
                bursty_trace(
                    n_requests=n_requests, rate_hz=0.8 * offered,
                    seed=shard_seed(seed, shard),
                ),
            ),
            TenantLoad(
                dataclasses.replace(background, name="background-" + label),
                pareto_trace(
                    n_requests=n_requests // 4, rate_hz=0.2 * offered,
                    seed=shard_seed(seed + 1, shard),
                ),
            ),
        ])
    return loads


def _sharded_op(shard_loads):
    """One inline two-shard ``ewma`` coordinator op on a new spec, so
    it pays for its own build."""
    return FleetCoordinator(
        _fleet_spec(), RouterConfig(), n_shards=2, seed=42, inline=True,
        controller=ControllerConfig(kind="ewma"),
    ).run(shard_loads=shard_loads)


def _bits(value):
    """``value`` as nested tuples, floats as their hex bits."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    return value


def _per_group_report(manager, plan):
    """The manager's report with every per-group GEMM simulated anew
    on a fresh manager (no memo of any kind)."""
    fresh = RuntimeKernelManager(
        manager.arch,
        backend=manager.backend,
        power_gating=manager.power_gating,
        use_priority_sm=manager.use_priority_sm,
    )
    report = scheduler_module.ExecutionReport()
    for schedule in plan.schedules:
        time_s = energy = 0.0
        sms_used = powered = 0
        for _group in range(schedule.gemm_count):
            result = fresh._run_layer(schedule)
            time_s += result.seconds
            energy += fresh._kernel_energy(result)
            sms_used = max(sms_used, result.sms_used)
            powered = max(powered, fresh._powered_sms(result))
        report.layers.append(
            scheduler_module.LayerExecution(
                schedule.name, time_s, energy, sms_used, powered,
                schedule.time_s,
            )
        )
    report.aux_time_s = plan.aux_time_s
    report.aux_energy_joules = fresh._aux_energy(plan.aux_time_s)
    return report


def _assert_fresh_plan(plan):
    """``plan`` is what a fresh compiler compiles, and each schedule is
    the tuner's kernel at the spread-capped TLP with ``layer_time``'s
    prediction for all its GEMMs."""
    fresh = OfflineCompiler(plan.arch)
    again = fresh.compile_with_batch(plan.network, plan.batch, plan.perforation)
    assert _bits(again) == _bits(plan)
    for schedule in plan.schedules:
        tuned = tune_layer_kernel(plan.arch, schedule.shape)
        tlp, sms = fresh._schedule_resources(tuned, schedule.shape)
        assert _bits(
            (tuned, tlp, sms, layer_time(
                plan.arch, tuned, schedule.shape, tlp=tlp, n_sms=sms,
                gemm_count=schedule.gemm_count,
            ))
        ) == _bits(
            (schedule.tuned, schedule.opt_tlp, schedule.opt_sm,
             schedule.time_s)
        )


@pytest.fixture(scope="module")
def shard_loads():
    return _shard_loads()


class TestEquivalence:
    def test_every_plan_a_build_compiles(self):
        engine = _fleet_spec().build().engine
        assert engine.cached_plans > 10
        for key, plan in engine._plans.items():
            assert key.backend == PCNN_BACKEND.name
            _assert_fresh_plan(plan)

    def test_every_rung_a_sharded_op_materializes(self, shard_loads):
        executed = []
        execute = RuntimeKernelManager.execute

        def spy(manager, plan):
            report = execute(manager, plan)
            executed.append((manager, plan, report))
            return report

        with mock.patch.object(RuntimeKernelManager, "execute", spy):
            _sharded_op(shard_loads)
        # Both shards execute every rung they touch; the second one's
        # launches are all memo hits, and still equal the first's.
        assert len(executed) > 8
        for manager, plan, report in executed:
            _assert_fresh_plan(plan)
            assert _bits(report) == _bits(_per_group_report(manager, plan))


class TestCounts:
    """Counted on one sharded op.  The fingerprint and engine stats are
    those the op read before any memo sat below the engine."""

    FINGERPRINT = "c791de33406583b4889568e66f90624b9a642a64"
    #: Per shard engine: compile calls and hits, execute calls and
    #: hits, and the simulated seconds it served.
    ENGINE_STATS = [
        (126, 2, 8, 0, "0x1.4bf4a98f98a56p-2"),
        (126, 2, 8, 0, "0x1.4bf4a98f98a57p-2"),
    ]

    def test_sharded_op(self, shard_loads):
        derived = Counter()
        decided = Counter()
        launched = Counter()
        simulated = []
        engines = []
        conv_shape = OfflineCompiler._conv_shape
        time_one = compiler_module.layer_time
        run_layer = RuntimeKernelManager._run_layer
        simulate = scheduler_module.simulate_kernel
        copy = ExecutionEngine.copy

        def count_conv_shape(compiler, network, layer, batch, perforation):
            derived[
                compiler.arch.name, layer, batch,
                perforation.rate(layer.name),
            ] += 1
            return conv_shape(compiler, network, layer, batch, perforation)

        def count_layer_time(arch, tuned, shape, **kwargs):
            decided[arch.name, shape] += 1
            return time_one(arch, tuned, shape, **kwargs)

        def count_run_layer(manager, schedule):
            launched[
                id(manager), schedule.tuned.kernel, schedule.shape,
                schedule.opt_tlp, schedule.opt_sm,
            ] += 1
            return run_layer(manager, schedule)

        def count_simulate(*args, **kwargs):
            simulated.append(args[1:3])
            return simulate(*args, **kwargs)

        def keep_copy(engine):
            twin = copy(engine)
            engines.append(twin)
            return twin

        with mock.patch.object(
            OfflineCompiler, "_conv_shape", count_conv_shape
        ), mock.patch.object(
            compiler_module, "layer_time", count_layer_time
        ), mock.patch.object(
            RuntimeKernelManager, "_run_layer", count_run_layer
        ), mock.patch.object(
            scheduler_module, "simulate_kernel", count_simulate
        ), mock.patch.object(ExecutionEngine, "copy", keep_copy):
            outcome = _sharded_op(shard_loads)
        assert outcome.report.fingerprint() == self.FINGERPRINT
        # One GEMM shape per (platform, layer, batch, rate), however
        # many of the op's plans hold that layer alike.
        assert derived and set(derived.values()) == {1}
        assert decided and set(decided.values()) == {1}
        assert launched and set(launched.values()) == {1}
        assert len(simulated) <= len(launched)
        # One manager per platform and mode across both shards.
        assert len({key[0] for key in launched}) == 2
        assert [
            (
                engine.stats.compile_calls,
                engine.stats.compile_hits,
                engine.stats.execute_calls,
                engine.stats.execute_hits,
                engine.stats.simulated_time_s.hex(),
            )
            for engine in engines
        ] == self.ENGINE_STATS


class TestSharing:
    def test_a_manager_first_made_by_a_copy_serves_every_copy(self):
        engine = ExecutionEngine(JETSON_TX1)
        first, second = engine.copy(), engine.copy()
        manager = second.manager_for(True, False)
        assert first.manager_for(True, False) is manager
        assert engine.manager_for(True, False) is manager
        assert first.copy().manager_for(True, False) is manager
        assert engine.compiler_for() is second.compiler_for()

    def test_an_uncached_engine_keeps_no_memo(self):
        engine = ExecutionEngine(JETSON_TX1, cache=False)
        plan = engine.compile_with_batch(alexnet(), 1)
        assert engine.manager_for(True, True) is not engine.manager_for(
            True, True
        )
        simulate = scheduler_module.simulate_kernel
        calls = []

        def count(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        with mock.patch.object(scheduler_module, "simulate_kernel", count):
            first = engine.execute(plan)
            once = len(calls)
            second = engine.execute(plan)
        assert once > 0 and len(calls) == 2 * once
        assert _bits(first) == _bits(second)
