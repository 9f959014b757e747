"""Supervised coordinator runs: chaos parity, escalation, resume.

The acceptance bar for the supervision layer: under injected process
faults every shard completes or is re-homed (zero requests lost), the
merged fingerprint of a recovered run is bit-identical to the
fault-free same-seed run, and a resume re-executes only the shards
that failed.  Everything here runs inline (the supervisor pre-empts
injected crashes/hangs with the identical failure sequence, so the
spawn machinery is exercised separately in
``tests/resilience/test_supervisor.py`` and ``test_shard_pickle.py``).
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.obs import SUPERVISION_METRIC_PREFIX
from repro.resilience import (
    ProcFaultPlan,
    ShardSupervisor,
    SupervisionError,
    SupervisorConfig,
)
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import shard_label, shard_seed
from repro.workloads import bursty_trace

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)
N_SHARDS = 3


@dataclass(frozen=True)
class _Spec:
    shard_id: int


def _fleet_spec():
    return FleetSpec(
        network="alexnet",
        spec=ApplicationSpec(
            "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
        ),
        gpus=("k20c",),
        max_tuning_iterations=4,
    )


def _shard_loads(n_shards=N_SHARDS, n_requests=24, seed=13):
    return [
        [
            TenantLoad(
                Tenant(
                    "tenant-%s" % shard_label(shard), _REQUIREMENT,
                    priority=1,
                ),
                bursty_trace(
                    n_requests, 25.0, seed=shard_seed(seed, shard)
                ),
            )
        ]
        for shard in range(n_shards)
    ]


def _run(n_shards=N_SHARDS, instrument=False, **kwargs):
    coordinator = FleetCoordinator(
        _fleet_spec(), RouterConfig(), n_shards=n_shards, seed=13,
        inline=True, **kwargs,
    )
    return coordinator.run(
        shard_loads=_shard_loads(n_shards), instrument=instrument
    )


class _CrashAfterFirstCall:
    """A duck-typed process-fault plan: shard ``doomed`` crashes on
    every attempt, every other shard on every decision after its
    first (so a shard's first pass runs clean and any re-run dies)."""

    may_hang = False
    crash_exit_code = 87

    def __init__(self, doomed):
        self.doomed = doomed
        self.seen = set()

    def decide(self, shard_id, attempt):
        first = shard_id not in self.seen
        self.seen.add(shard_id)
        if shard_id == self.doomed or not first:
            return "crash"
        return None


@pytest.fixture(scope="module")
def clean_outcome():
    return _run()


class TestChaosParity:
    def test_crash_recovery_is_bit_identical(self, clean_outcome):
        plan = ProcFaultPlan(seed=2, forced=((1, "crash"),))
        chaos = _run(proc_faults=plan)
        assert (
            chaos.report.fingerprint()
            == clean_outcome.report.fingerprint()
        )
        assert chaos.statuses == ("ok", "retried", "ok")
        assert chaos.report.n_offered == clean_outcome.report.n_offered

    def test_mixed_fault_palette_recovers(self, clean_outcome):
        plan = ProcFaultPlan(
            seed=2,
            forced=((0, "crash"), (1, "hang"), (2, "corrupt")),
            hang_s=3600.0,
        )
        chaos = _run(
            proc_faults=plan,
            supervision=SupervisorConfig(timeout_s=30.0),
        )
        assert (
            chaos.report.fingerprint()
            == clean_outcome.report.fingerprint()
        )
        assert chaos.statuses == ("retried", "retried", "retried")
        kinds = {
            failure.kind for failure in chaos.supervision.failures
        }
        assert kinds == {"crashed", "timeout", "integrity"}

    def test_supervision_metrics_are_fingerprint_neutral(self):
        plan = ProcFaultPlan(seed=2, forced=((1, "crash"),))
        clean = _run(instrument=True)
        chaos = _run(instrument=True, proc_faults=plan)
        assert (
            chaos.report.fingerprint() == clean.report.fingerprint()
        )
        supervisor_series = [
            series
            for series in chaos.report.obs["metrics"]
            if series.startswith(SUPERVISION_METRIC_PREFIX)
        ]
        assert supervisor_series, "supervision tallies missing from obs"
        retries = chaos.report.obs["metrics"][
            "supervisor_retries_total"
        ]
        assert retries["value"] == 1

    def test_supervise_spans_in_stitched_trace(self):
        plan = ProcFaultPlan(seed=2, forced=((1, "crash"),))
        chaos = _run(instrument=True, proc_faults=plan)
        supervise = list(chaos.buffer.of_name("supervise"))
        # One per shard record + one per recorded failure.
        assert len(supervise) == N_SHARDS + 1
        statuses = {
            span.attrs["shard"]: span.attrs.get("status")
            for span in supervise
            if "status" in span.attrs
        }
        assert statuses == {"s0": "ok", "s1": "retried", "s2": "ok"}
        # Zero-width and cache-sensitive: the trace fingerprint of a
        # chaos run equals the clean run's.
        clean = _run(instrument=True)
        assert chaos.buffer.fingerprint() == clean.buffer.fingerprint()


class TestEscalation:
    def test_exhausted_shard_is_rehomed_with_zero_loss(self, clean_outcome):
        plan = ProcFaultPlan(
            seed=2, forced=((1, "crash"),), max_faulty_attempts=99
        )
        outcome = _run(
            proc_faults=plan,
            supervision=SupervisorConfig(max_attempts=2),
        )
        assert outcome.escalated == (1,)
        assert outcome.escalation_target in (0, 2)
        assert outcome.statuses[1] == "dead"
        # Zero requests lost: the merged ledger still accounts for
        # every offered request (under the target's platform names).
        assert (
            outcome.report.n_offered == clean_outcome.report.n_offered
        )
        assert outcome.shard_reports[1].n_offered == 0

    def test_single_shard_failure_raises(self):
        plan = ProcFaultPlan(
            seed=2, forced=((0, "crash"),), max_faulty_attempts=99
        )
        with pytest.raises(SupervisionError, match="single shard"):
            _run(
                n_shards=1,
                proc_faults=plan,
                supervision=SupervisorConfig(max_attempts=2),
            )

    def test_resilience_off_failure_raises(self):
        plan = ProcFaultPlan(
            seed=2, forced=((1, "crash"),), max_faulty_attempts=99
        )
        coordinator = FleetCoordinator(
            _fleet_spec(), RouterConfig(resilience=False),
            n_shards=N_SHARDS, seed=13, inline=True, proc_faults=plan,
            supervision=SupervisorConfig(max_attempts=2),
        )
        with pytest.raises(SupervisionError, match="resilience disabled"):
            coordinator.run(shard_loads=_shard_loads())

    def test_no_healthy_shard_left_raises(self):
        plan = ProcFaultPlan(
            forced=tuple((shard, "crash") for shard in range(N_SHARDS)),
            max_faulty_attempts=99,
        )
        with pytest.raises(
            SupervisionError,
            match=r"s0, s1, s2 exhausted .* no healthy shard remains",
        ):
            _run(
                proc_faults=plan,
                supervision=SupervisorConfig(max_attempts=1),
            )

    def test_failed_escalation_rerun_raises(self):
        """The re-run is a fresh supervisor pass: when it exhausts its
        own retries, the escalation names its target."""
        plan = _CrashAfterFirstCall(doomed=1)
        with pytest.raises(
            SupervisionError,
            match=r"escalation target s[02] itself exhausted",
        ) as raised:
            _run(
                proc_faults=plan,
                supervision=SupervisorConfig(max_attempts=2),
            )
        statuses = {
            record.shard_id: record.status
            for record in raised.value.report.records
        }
        assert statuses[1] == "failed"
        assert sorted(statuses.values()) == ["failed", "failed", "ok"]


class TestResume:
    def test_resume_executes_only_failed_shards(self, tmp_path):
        plan = ProcFaultPlan(
            seed=2, forced=((1, "crash"),), max_faulty_attempts=99
        )
        config = RouterConfig(resilience=False)
        resume_dir = str(tmp_path / "run")

        def coordinator(**kwargs):
            return FleetCoordinator(
                _fleet_spec(), config, n_shards=N_SHARDS, seed=13,
                inline=True, resume_dir=resume_dir, **kwargs,
            )

        with pytest.raises(SupervisionError):
            coordinator(
                proc_faults=plan,
                supervision=SupervisorConfig(max_attempts=2),
            ).run(shard_loads=_shard_loads())
        # Healthy rerun: shards 0/2 come back from checkpoints, only
        # the crashed shard executes; the result matches a clean run.
        resumed = coordinator().run(shard_loads=_shard_loads())
        assert resumed.statuses == ("resumed", "ok", "resumed")
        clean = FleetCoordinator(
            _fleet_spec(), config, n_shards=N_SHARDS, seed=13,
            inline=True,
        ).run(shard_loads=_shard_loads())
        assert (
            resumed.report.fingerprint() == clean.report.fingerprint()
        )


class TestProcessKnob:
    def test_processes_validated(self):
        with pytest.raises(ValueError):
            FleetCoordinator(_fleet_spec(), processes=0)

    def test_effective_processes_caps_at_cpu_and_shards(self, monkeypatch):
        """A spawn coordinator runs at most ``min(shards, processes or
        cpu count)`` attempts at once.  Launch and poll are stubbed
        (each poll finishes every running attempt), so nothing is
        spawned."""
        import os

        running_at_poll = []

        def launch(self, context, work):
            return work

        def poll(self, running, states, queue):
            running_at_poll.append(len(running))
            running.clear()

        monkeypatch.setattr(ShardSupervisor, "_launch", launch)
        monkeypatch.setattr(ShardSupervisor, "_poll", poll)

        def peak(n_specs, processes=None):
            del running_at_poll[:]
            FleetCoordinator(
                _fleet_spec(), n_shards=n_specs, processes=processes
            )._supervise([_Spec(shard_id) for shard_id in range(n_specs)])
            return max(running_at_poll)

        assert peak(4) == min(4, os.cpu_count() or 1)
        assert peak(4, processes=2) == 2
        assert peak(1, processes=2) == 1
        assert peak(3, processes=8) == 3


class TestAttemptInvariance:
    """The hypothesis property behind the whole design: the number of
    faulty attempts a shard survives never changes the merged
    fingerprint."""

    @given(faulty_attempts=st.integers(0, 3), crash_seed=st.integers(0, 5))
    @settings(max_examples=8, deadline=None)
    def test_retry_count_never_changes_the_fingerprint(
        self, faulty_attempts, crash_seed
    ):
        clean = _run(n_shards=2)
        plan = ProcFaultPlan(
            seed=crash_seed,
            forced=((0, "crash"), (1, "corrupt")),
            max_faulty_attempts=faulty_attempts,
        )
        chaos = _run(
            n_shards=2,
            proc_faults=plan,
            supervision=SupervisorConfig(
                max_attempts=faulty_attempts + 1
            ),
        )
        assert (
            chaos.report.fingerprint() == clean.report.fingerprint()
        )
        expected_attempts = 2 * (faulty_attempts + 1)
        assert (
            chaos.supervision.counters()["attempts"]
            == expected_attempts
        )
