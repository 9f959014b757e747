"""Shards route on copies of the one build their fleet spec keeps.

The contract: :meth:`FleetSpec.deployed` builds once per spec instance
and returns a fresh :meth:`FleetManager.copy` on every call; the build
lives as long as the spec and never travels (not pickled, not carried
by ``dataclasses.replace``).  So a coordinator builds the fleet at
most once however often it runs (never while every shard resumes from
a checkpoint), and every inline attempt -- first try, retry, witness
or re-run -- routes on its own copy.  A copy's caches start where a
fresh build's would, so each shard's report, engine relays and obs
section included, is the one it would produce on a real build, and a
failed attempt's warmed caches never reach the next attempt.
"""

import dataclasses
import pickle

import pytest

import repro.serving.shard.coordinator as coordinator_module
from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultEvent, FaultTrace
from repro.resilience import ProcFaultPlan, SupervisorConfig
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import (
    ShardSpec,
    run_shard,
    shard_label,
    shard_seed,
)
from repro.workloads import bursty_trace

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def _fleet_spec():
    return FleetSpec(
        network="alexnet",
        spec=ApplicationSpec(
            "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
        ),
        gpus=("k20c", "tx1"),
        max_tuning_iterations=4,
    )


def _shard_loads(n_shards, n_requests=30, seed=21):
    return [
        [
            TenantLoad(
                Tenant(
                    "tenant-%s" % shard_label(shard), _REQUIREMENT,
                    priority=1,
                ),
                bursty_trace(
                    n_requests, 60.0, seed=shard_seed(seed, shard)
                ),
            )
        ]
        for shard in range(n_shards)
    ]


def _run(n_shards=2, instrument=False, fleet=None, **kwargs):
    return FleetCoordinator(
        fleet if fleet is not None else _fleet_spec(), RouterConfig(),
        n_shards=n_shards, seed=21, inline=True, **kwargs,
    ).run(shard_loads=_shard_loads(n_shards), instrument=instrument)


def _full_bytes(report):
    return report.to_json(include_events=True, include_requests=True)


def _outcome_bytes(outcome):
    """The merged report and every shard's, events and records included."""
    return [_full_bytes(outcome.report)] + [
        _full_bytes(report) for report in outcome.shard_reports
    ]


@pytest.fixture
def builds(monkeypatch):
    """Every ``FleetSpec.build`` call made while the test runs."""
    calls = []
    build = FleetSpec.build

    def counting(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(FleetSpec, "build", counting)
    return calls


@pytest.fixture
def handed(monkeypatch):
    """Every fleet ``FleetSpec.deployed`` hands out while the test
    runs."""
    fleets = []
    deployed = FleetSpec.deployed

    def recording(self):
        fleet = deployed(self)
        fleets.append(fleet)
        return fleet

    monkeypatch.setattr(FleetSpec, "deployed", recording)
    return fleets


@pytest.fixture
def attempts(monkeypatch):
    """Every inline attempt the coordinator makes, as ``(spec,
    result)``."""
    seen = []

    def recording(spec):
        result = run_shard(spec)
        seen.append((spec, result))
        return result

    monkeypatch.setattr(coordinator_module, "run_shard", recording)
    return seen


class TestDeployed:
    def test_one_build_per_spec_and_a_copy_per_call(self, builds):
        fleet_spec = _fleet_spec()
        fleets = [fleet_spec.deployed() for _ in range(3)]
        assert len(builds) == 1
        assert len({id(fleet) for fleet in fleets}) == 3
        assert len({id(fleet.engine) for fleet in fleets}) == 3
        _fleet_spec().deployed()
        assert len(builds) == 2  # an equal spec is another instance

    def test_the_build_never_travels(self, builds):
        fleet_spec = _fleet_spec()
        shard = ShardSpec(
            shard_id=0, n_shards=1, fleet=fleet_spec, config=RouterConfig(),
            loads=(),
        )
        before = pickle.dumps(shard, protocol=4)
        fleet_spec.deployed()
        # A spec pickles the same before and after its build, so spawn
        # arguments and checkpoint digests do not change.
        assert pickle.dumps(shard, protocol=4) == before
        twins = [
            dataclasses.replace(fleet_spec),
            pickle.loads(pickle.dumps(fleet_spec)),
        ]
        for twin in twins:
            assert twin == fleet_spec
            twin.deployed()
        assert len(builds) == 3


class TestBuildOnce:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_one_build_per_run(self, builds, n_shards):
        fleet_spec = _fleet_spec()
        first = _run(n_shards=n_shards, fleet=fleet_spec)
        assert len(builds) == 1
        assert first.report.n_offered == 30 * n_shards
        # The build lives as long as its spec, and reusing it changes
        # speed only.
        again = _run(n_shards=n_shards, fleet=fleet_spec)
        assert len(builds) == 1
        assert _outcome_bytes(again) == _outcome_bytes(first)
        _run(n_shards=n_shards)
        assert len(builds) == 2

    def test_escalation_and_failover_reuse_the_build(self, builds):
        escalated = _run(
            proc_faults=ProcFaultPlan(
                forced=((1, "crash"),), max_faulty_attempts=99
            ),
            supervision=SupervisorConfig(max_attempts=2),
        )
        assert escalated.escalated == (1,)
        assert len(builds) == 1
        outage = FaultTrace([
            FaultEvent(
                time_s=time_s, kind=kind, platform=gpu, episode=episode,
            )
            for episode, gpu in enumerate(("K20c", "TX1"), start=1)
            for time_s, kind in ((0.001, "outage"), (500.0, "restore"))
        ])
        failed_over = FleetCoordinator(
            _fleet_spec(), RouterConfig(), n_shards=2, seed=21,
            inline=True,
        ).run(_shard_loads(2), shard_faults=[None, outage])
        assert failed_over.dead_shards == (1,)
        assert failed_over.rehomed > 0
        assert len(builds) == 2

    def test_resumed_run_builds_nothing(self, builds, tmp_path):
        resume_dir = str(tmp_path / "run")
        first = _run(resume_dir=resume_dir)
        assert len(builds) == 1
        resumed = _run(resume_dir=resume_dir)
        assert resumed.statuses == ("resumed", "resumed")
        assert len(builds) == 1
        assert _outcome_bytes(resumed) == _outcome_bytes(first)

    def test_every_attempt_gets_its_own_copy(self, builds, handed):
        _run(
            proc_faults=ProcFaultPlan(forced=((0, "corrupt"),)),
            supervision=SupervisorConfig(witness=True),
        )
        assert len(builds) == 1
        # Shard 0: corrupt try, retry, witness; shard 1: try, witness.
        assert len(handed) == 5
        assert len({id(fleet) for fleet in handed}) == len(handed)
        assert len({id(fleet.engine) for fleet in handed}) == len(handed)


class TestCopiesMatchOwnBuilds:
    """Each inline shard equals the same spec routed on a real build."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"instrument": True},
            {"controller": ControllerConfig(kind="ewma", tick_s=0.05)},
        ],
        ids=["plain", "instrumented", "ewma"],
    )
    def test_shard_reports_match(self, attempts, monkeypatch, kwargs):
        _run(**kwargs)
        assert len(attempts) == 2
        # The reference routes on a build of its own, not another copy.
        monkeypatch.setattr(FleetSpec, "deployed", FleetSpec.build)
        for spec, result in attempts:
            own = run_shard(spec)
            assert result.report.to_dict(
                include_events=True, include_requests=True
            ) == own.report.to_dict(
                include_events=True, include_requests=True
            )
            assert result.spans == own.spans
            assert result.report.fingerprint() == own.report.fingerprint()
        kinds = attempts[0][1].report.to_dict()["event_counts"]
        assert kinds.get("compile", 0) > 0  # the relays were compared


class TestFailedAttemptsLeaveNoTrace:
    """A rejected or re-executed attempt's warmed caches never reach
    the accepted result: it is byte-identical to a clean run's."""

    @pytest.fixture(scope="class")
    def clean(self):
        return _outcome_bytes(_run())

    def test_corrupt_attempt(self, clean):
        outcome = _run(proc_faults=ProcFaultPlan(forced=((0, "corrupt"),)))
        assert outcome.statuses == ("retried", "ok")
        assert _outcome_bytes(outcome) == clean

    def test_witness_runs(self, clean):
        outcome = _run(supervision=SupervisorConfig(witness=True))
        assert outcome.statuses == ("ok", "ok")
        assert _outcome_bytes(outcome) == clean
