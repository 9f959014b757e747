"""Tests for repro.serving.shard: shard naming and seeds, and the
coordinator in inline mode (spawn parity is covered by the pickle
suite and the sharding benchmark)."""

import re

import pytest

from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultEvent, FaultTrace
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import (
    ShardSpec,
    run_shard,
    shard_label,
    shard_platform,
    shard_seed,
)
from repro.workloads import bursty_trace

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def _load(name, n=20, rate_hz=20.0, seed=0, priority=1):
    return TenantLoad(
        Tenant(name, _REQUIREMENT, priority=priority),
        bursty_trace(n, rate_hz, seed=seed),
    )


@pytest.fixture(scope="module")
def fleet_spec(spec):
    # Mirrors the conftest `fleet` fixture (same GPUs, same tuning
    # budget) so coordinator runs are comparable to direct ones.
    return FleetSpec(
        network="alexnet", spec=spec, gpus=("k20c", "tx1"),
        max_tuning_iterations=8,
    )


class TestShardNaming:
    def test_label(self):
        assert shard_label(0) == "s0"
        assert shard_label(12) == "s12"
        with pytest.raises(ValueError):
            shard_label(-1)

    def test_platform(self):
        assert shard_platform(3, "K20c") == "s3/K20c"

    def test_seed_derivation(self):
        assert shard_seed(42, 0) == shard_seed(42, 0)
        seeds = {shard_seed(42, shard) for shard in range(16)}
        assert len(seeds) == 16
        assert all(seed >= 0 for seed in seeds)
        assert shard_seed(42, 0) != shard_seed(43, 0)


class TestShardSpecValidation:
    def test_shard_id_range(self, fleet_spec):
        with pytest.raises(ValueError):
            ShardSpec(shard_id=2, n_shards=2, fleet=fleet_spec,
                      config=RouterConfig(), loads=())
        with pytest.raises(ValueError):
            ShardSpec(shard_id=-1, n_shards=2, fleet=fleet_spec,
                      config=RouterConfig(), loads=())

    def test_label(self, fleet_spec):
        solo = ShardSpec(shard_id=0, n_shards=1, fleet=fleet_spec,
                         config=RouterConfig(), loads=())
        assert solo.label is None
        second = ShardSpec(shard_id=1, n_shards=4, fleet=fleet_spec,
                           config=RouterConfig(), loads=())
        assert second.label == "s1"

    def test_fleet_spec_requires_gpus(self, spec):
        with pytest.raises(ValueError):
            FleetSpec(network="alexnet", spec=spec, gpus=())

    @pytest.mark.parametrize("fields, message", [
        (dict(gpus=("k20c", "nope")), "gpus: unknown GPU 'nope'"),
        (dict(network="nope"), "network: unknown network 'nope'"),
        (dict(gpus=("k20c", "K20")),
         "gpus: fleet lists GPU K20c more than once"),
        (dict(gpus=("tx1", "tx1")),
         "gpus: fleet lists GPU TX1 more than once"),
        (dict(max_tuning_iterations=-5), "max_tuning_iterations must be"),
    ])
    def test_fleet_spec_rejects_what_only_a_worker_would(
        self, spec, fields, message
    ):
        """Each name resolves when the spec is made, so the error names
        the field instead of exhausting every shard's retries."""
        values = dict(network="alexnet", spec=spec, gpus=("k20c", "tx1"))
        values.update(fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            FleetSpec(**values)

    def test_zero_tuning_iterations_is_legal(self, spec):
        fleet = FleetSpec(
            network="alexnet", spec=spec, gpus=("tx1",),
            max_tuning_iterations=0,
        )
        assert fleet.max_tuning_iterations == 0


class TestCoordinatorInline:
    def test_degenerate_equals_direct_router(self, fleet, fleet_spec):
        loads = [_load("solo", n=30, seed=7)]
        direct = RequestRouter(fleet, RouterConfig()).run(loads)
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=1, inline=True
        ).run(shard_loads=[loads])
        assert outcome.report.fingerprint() == direct.fingerprint()
        assert outcome.rehomed == 0
        assert outcome.dead_shards == ()
        assert outcome.failover_target is None

    def test_two_shards_deterministic_and_qualified(self, fleet_spec):
        shard_loads = [
            [_load("t0", n=25, seed=1)],
            [_load("t1", n=25, seed=2)],
        ]

        def run():
            return FleetCoordinator(
                fleet_spec, RouterConfig(), n_shards=2, seed=5,
                inline=True,
            ).run(shard_loads=shard_loads)

        first, second = run(), run()
        assert first.report.fingerprint() == second.report.fingerprint()
        assert first.seeds == (shard_seed(5, 0), shard_seed(5, 1))
        assert len(set(first.seeds)) == 2
        platforms = {stats.platform for stats in first.report.platforms}
        assert platforms == {"s0/K20c", "s0/TX1", "s1/K20c", "s1/TX1"}
        rids = sorted(
            [r.request.rid for r in first.report.completed]
            + [r.request.rid for r in first.report.rejected]
        )
        assert rids == list(range(first.report.n_offered))
        assert first.report.n_offered == 50

    def test_run_argument_validation(self, fleet_spec):
        coordinator = FleetCoordinator(fleet_spec, n_shards=2, inline=True)
        with pytest.raises(ValueError, match="shard_loads has 1 entries"):
            coordinator.run(shard_loads=[[]])
        with pytest.raises(ValueError, match="shard_faults has 1 entries"):
            coordinator.run(shard_loads=[[], []], shard_faults=[None])
        with pytest.raises(TypeError):
            coordinator.run(loads=[])
        with pytest.raises(TypeError):
            coordinator.run(shard_loads=[[], []], faults=None)

    def test_constructor_validation(self, fleet_spec):
        with pytest.raises(ValueError):
            FleetCoordinator(fleet_spec, n_shards=0)
        with pytest.raises(ValueError):
            FleetCoordinator(fleet_spec, processes=0)

    def test_failover_rehomes_dead_shard(self, fleet_spec):
        """A fully dead shard loses zero requests: everything it
        rejected is re-adjudicated by the healthy target."""
        shard_loads = [
            [_load("t0", n=20, seed=1)],
            [_load("t1", n=20, seed=2)],
        ]
        events = []
        for episode, gpu in enumerate(("K20c", "TX1"), start=1):
            events.append(FaultEvent(
                time_s=0.001, kind="outage", platform=gpu, episode=episode,
            ))
            events.append(FaultEvent(
                time_s=500.0, kind="restore", platform=gpu, episode=episode,
            ))
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, inline=True
        ).run(shard_loads, shard_faults=[None, FaultTrace(events)])
        assert outcome.dead_shards == (1,)
        assert outcome.failover_target == 0
        assert outcome.rehomed == 20
        assert outcome.report.fingerprint() == (
            "ffcd4075cb201adc4eb940a3cb884348498e353e"
        )
        reasons = {r.reason for r in outcome.report.rejected}
        assert not reasons.intersection({"outage", "stranded"})
        assert (
            outcome.report.n_completed + len(outcome.report.rejected)
            == outcome.report.n_offered
            == 40
        )
        rids = sorted(
            [r.request.rid for r in outcome.report.completed]
            + [r.request.rid for r in outcome.report.rejected]
        )
        assert rids == list(range(40))

    def test_stitched_spans(self, fleet_spec):
        shard_loads = [
            [_load("t0", n=10, seed=1)],
            [_load("t1", n=10, seed=2)],
        ]
        outcome = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=2, inline=True
        ).run(shard_loads=shard_loads, instrument=True)
        buffer = outcome.buffer
        assert buffer is not None
        roots = buffer.children_of(None)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "run"
        assert root.attrs["shards"] == 2
        shard_runs = [
            span
            for span in buffer.children_of(root.span_id)
            if span.name == "run"
        ]
        assert {span.attrs.get("shard") for span in shard_runs} == {
            "s0", "s1",
        }
        assert root.end_s >= max(span.end_s for span in buffer)

    def test_uninstrumented_run_has_no_buffer(self, fleet_spec):
        outcome = FleetCoordinator(fleet_spec, inline=True).run(
            shard_loads=[[_load("t0", n=5)]]
        )
        assert outcome.buffer is None


class TestRunShard:
    def test_worker_runs_spec(self, fleet_spec):
        spec = ShardSpec(
            shard_id=0, n_shards=1, fleet=fleet_spec,
            config=RouterConfig(), loads=(_load("w", n=10),),
        )
        result = run_shard(spec)
        assert result.shard_id == 0
        assert result.report.n_offered == 10
        assert result.spans is None

    def test_worker_instrumented_spans(self, fleet_spec):
        spec = ShardSpec(
            shard_id=1, n_shards=2, fleet=fleet_spec,
            config=RouterConfig(), loads=(_load("w", n=10),),
            instrument=True,
        )
        result = run_shard(spec)
        assert result.spans
        run_spans = [s for s in result.spans if s["name"] == "run"]
        assert run_spans and all(
            s["attrs"].get("shard") == "s1" for s in run_spans
        )

class TestSpawnGuard:
    def test_stdin_main_fails_fast(self, fleet_spec, monkeypatch):
        """A __main__ without a real file (stdin script) must raise,
        not hang the spawn pool in a respawn loop."""
        import sys
        import types

        fake_main = types.ModuleType("__main__")
        fake_main.__file__ = "<stdin>"
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        coordinator = FleetCoordinator(fleet_spec, n_shards=2)
        with pytest.raises(RuntimeError, match="stdin"):
            coordinator.run(shard_loads=[[_load("t0")], [_load("t1")]])
