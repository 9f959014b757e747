"""ShardSupervisor: retry, integrity, witness, exhaustion, spawn.

The toy task/spec/result here are deliberately tiny dataclasses that
satisfy the supervisor's duck-typed contract (``shard_id``, ``seed``,
a fingerprintable ``report``) without building fleets, so each case
isolates one supervision behaviour.  Process faults come from a plan
handed to the supervisor, as in production.  Everything is
module-top-level so the spawn tests can pickle it.
"""

import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.resilience import (
    CheckpointStore,
    FAILURE_KINDS,
    ProcFaultPlan,
    ShardFailure,
    ShardRunRecord,
    ShardSupervisor,
    SupervisorConfig,
    merge_records,
)


@dataclass(frozen=True)
class ToyReport:
    horizon_s: float = 0.0
    payload: int = 0

    def fingerprint(self) -> str:
        return "fp:%r:%r" % (self.horizon_s, self.payload)


@dataclass(frozen=True)
class ToySpec:
    shard_id: int
    seed: int = 0
    #: The task raises on its first ``fail_times`` calls with this
    #: spec (transient errors; counted in-process, so inline only).
    fail_times: int = 0
    #: Seconds the task sleeps before answering (spawn timeout tests).
    sleep_s: float = 0.0


@dataclass(frozen=True)
class ToyResult:
    shard_id: int
    seed: int
    report: ToyReport
    declared_fingerprint: Optional[str] = None


class ToyTask:
    """A miniature ``run_shard``: no fleet, no fault contract (the
    supervisor applies process faults around the task)."""

    def __init__(self) -> None:
        self.calls = Counter()

    def __call__(self, spec: ToySpec) -> ToyResult:
        if spec.sleep_s:
            time.sleep(spec.sleep_s)
        self.calls[spec] += 1
        if self.calls[spec] <= spec.fail_times:
            raise RuntimeError(
                "transient failure on call %d" % self.calls[spec]
            )
        report = ToyReport(payload=100 * spec.shard_id + spec.seed)
        return ToyResult(
            shard_id=spec.shard_id,
            seed=spec.seed,
            report=report,
            declared_fingerprint=report.fingerprint(),
        )


class RecordingPlan:
    """A duck-typed process-fault plan that logs every decision it is
    asked for and refuses to decide outside the process that made it
    (a spawn child holds an unpickled copy, so it would raise)."""

    def __init__(self, plan: ProcFaultPlan) -> None:
        self.plan = plan
        self.pid = os.getpid()
        self.calls = []
        self.may_hang = plan.may_hang
        self.hang_s = plan.hang_s
        self.crash_exit_code = plan.crash_exit_code

    def decide(self, shard_id: int, attempt: int) -> Optional[str]:
        if os.getpid() != self.pid:
            raise RuntimeError("decide called outside the supervisor")
        self.calls.append((shard_id, attempt))
        return self.plan.decide(shard_id, attempt)

    def tamper(self, kind: str, result):
        return self.plan.tamper(kind, result)


def unpicklable_task(spec: ToySpec) -> ToyResult:
    """A result that cannot cross the spawn pipe."""
    return ToyResult(
        shard_id=spec.shard_id,
        seed=spec.seed,
        report=ToyReport(payload=threading.Lock()),
    )


def supervise(specs, **kwargs):
    inline = kwargs.pop("inline", True)
    return ShardSupervisor(ToyTask(), inline=inline, **kwargs).run(specs)


class TestInlineSupervision:
    def test_clean_run_accepts_everything(self):
        outcome = supervise([ToySpec(shard_id=k, seed=7) for k in range(3)])
        assert sorted(outcome.results) == [0, 1, 2]
        assert all(
            record.status == "ok" for record in outcome.report.records
        )
        assert outcome.report.counters()["retries"] == 0

    def test_injected_crash_is_preempted_and_retried(self):
        plan = ProcFaultPlan(seed=1, forced=((1, "crash"),))
        outcome = supervise(
            [ToySpec(shard_id=k) for k in range(2)], proc_faults=plan
        )
        record = outcome.report.records[1]
        assert record.status == "retried"
        assert record.attempts == 2
        (failure,) = record.failures
        assert failure.kind == "crashed"
        assert failure.exitcode == plan.crash_exit_code
        # Attempt-invariance: the retried shard's accepted result is
        # exactly what a fault-free run produces.
        clean = supervise([ToySpec(shard_id=1)])
        assert (
            outcome.results[1].report.fingerprint()
            == clean.results[1].report.fingerprint()
        )

    def test_injected_hang_synthesizes_a_timeout(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "hang"),), hang_s=3600.0)
        outcome = supervise(
            [ToySpec(shard_id=0)],
            proc_faults=plan,
            config=SupervisorConfig(timeout_s=5.0),
        )
        (failure,) = outcome.report.records[0].failures
        assert failure.kind == "timeout"
        assert outcome.report.records[0].status == "retried"

    def test_hang_capable_plan_without_timeout_is_rejected(self):
        plan = ProcFaultPlan(hang_rate=0.5)
        with pytest.raises(ValueError, match="timeout"):
            supervise([ToySpec(shard_id=0)], proc_faults=plan)

    def test_corrupt_result_trips_integrity_validation(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "corrupt"),))
        outcome = supervise([ToySpec(shard_id=0)], proc_faults=plan)
        (failure,) = outcome.report.records[0].failures
        assert failure.kind == "integrity"
        assert "declared fingerprint" in failure.detail
        assert outcome.results[0].report.payload == 0

    def test_truncated_result_trips_schema_validation(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "truncate"),))
        outcome = supervise([ToySpec(shard_id=0)], proc_faults=plan)
        (failure,) = outcome.report.records[0].failures
        assert failure.kind == "integrity"
        assert "schema" in failure.detail

    def test_forged_result_slips_past_validation_without_witness(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "forge"),))
        outcome = supervise([ToySpec(shard_id=0)], proc_faults=plan)
        # Self-consistent forgery: accepted, silently wrong.
        assert outcome.results[0].report.horizon_s == 1.0
        assert outcome.report.records[0].status == "ok"

    def test_witness_quorum_catches_forged_results(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "forge"),))
        outcome = supervise(
            [ToySpec(shard_id=0)],
            proc_faults=plan,
            config=SupervisorConfig(witness=True),
        )
        (failure,) = outcome.report.records[0].failures
        assert failure.kind == "witness"
        # The retry ran clean and the witness agreed.
        assert outcome.results[0].report.horizon_s == 0.0

    def test_task_exception_is_an_error_failure(self):
        outcome = supervise([ToySpec(shard_id=0, fail_times=1)])
        (failure,) = outcome.report.records[0].failures
        assert failure.kind == "error"
        assert "transient failure" in failure.detail
        assert outcome.report.records[0].status == "retried"

    def test_exhausted_shard_is_failed_not_raised(self):
        outcome = supervise(
            [ToySpec(shard_id=0, fail_times=99), ToySpec(shard_id=1)],
            config=SupervisorConfig(max_attempts=2),
        )
        assert 0 not in outcome.results
        assert 1 in outcome.results
        record = outcome.report.records[0]
        assert record.status == "failed"
        assert record.attempts == 2
        assert len(record.failures) == 2
        assert outcome.report.failed_shards == (0,)

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            supervise([ToySpec(shard_id=0), ToySpec(shard_id=0)])

    def test_failure_kinds_closed_set(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "crash"), (1, "corrupt")))
        outcome = supervise(
            [ToySpec(shard_id=k) for k in range(3)], proc_faults=plan
        )
        for failure in outcome.report.failures:
            assert failure.kind in FAILURE_KINDS


class TestCheckpointIntegration:
    def test_second_run_resumes_completed_shards(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        specs = [ToySpec(shard_id=k, seed=3) for k in range(2)]
        first = supervise(specs, checkpoint=store)
        assert all(r.status == "ok" for r in first.report.records)
        second = supervise(specs, checkpoint=store)
        assert all(
            record.status == "resumed" and record.attempts == 0
            for record in second.report.records
        )
        assert (
            second.results[1].report.fingerprint()
            == first.results[1].report.fingerprint()
        )

    def test_failed_shards_are_not_checkpointed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        specs = [
            ToySpec(shard_id=0, seed=3, fail_times=99),
            ToySpec(shard_id=1, seed=3),
        ]
        first = supervise(
            specs, checkpoint=store, config=SupervisorConfig(max_attempts=1)
        )
        assert first.report.failed_shards == (0,)
        # The rerun resumes shard 1 and re-executes (only) shard 0.
        healthy = [ToySpec(shard_id=0, seed=3), ToySpec(shard_id=1, seed=3)]
        second = supervise(healthy, checkpoint=store)
        statuses = {
            record.shard_id: record.status
            for record in second.report.records
        }
        assert statuses == {0: "ok", 1: "resumed"}

    def test_manifest_written(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        supervise([ToySpec(shard_id=0)], checkpoint=store)
        assert (tmp_path / "manifest.json").exists()


class TestMergeRecords:
    def test_disjoint_ids_concatenate(self):
        base = (ShardRunRecord(shard_id=0, status="ok", attempts=1),)
        extra = (ShardRunRecord(shard_id=1, status="ok", attempts=1),)
        merged = merge_records(base, extra)
        assert [record.shard_id for record in merged] == [0, 1]

    def test_same_shard_folds_attempts_and_failures(self):
        failure = ShardFailure(
            shard_id=2, attempt=1, kind="crashed", detail="boom"
        )
        base = (
            ShardRunRecord(
                shard_id=2, status="retried", attempts=2,
                failures=(failure,),
            ),
        )
        extra = (ShardRunRecord(shard_id=2, status="ok", attempts=1),)
        (merged,) = merge_records(base, extra)
        assert merged.attempts == 3
        assert merged.failures == (failure,)
        assert merged.status == "retried"

    def test_followup_failure_dominates(self):
        base = (ShardRunRecord(shard_id=0, status="ok", attempts=1),)
        extra = (ShardRunRecord(shard_id=0, status="failed", attempts=3),)
        (merged,) = merge_records(base, extra)
        assert merged.status == "failed"


class TestReportShapes:
    def test_counters_and_to_dict(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "crash"),))
        outcome = supervise(
            [ToySpec(shard_id=k) for k in range(2)], proc_faults=plan
        )
        counters = outcome.report.counters()
        assert counters["attempts"] == 3
        assert counters["retries"] == 1
        assert counters["failures_crashed"] == 1
        data = outcome.report.to_dict()
        assert data["counters"] == counters
        assert len(data["records"]) == 2
        assert data["records"][0]["failures"][0]["kind"] == "crashed"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(kill_grace_s=0.0)
        # A NaN timeout never fires, so a hung worker would never be
        # killed: non-finite values are rejected by name (None stays
        # the way to disable the timeout).
        for name in ("timeout_s", "kill_grace_s"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    SupervisorConfig(**{name: value})
        assert SupervisorConfig(timeout_s=None).timeout_s is None
        with pytest.raises(ValueError):
            ShardSupervisor(ToyTask(), processes=0)


class TestSpawnSupervision:
    """Real processes: actual kills, actual timeouts, same results."""

    def test_spawn_recovers_a_real_self_kill(self):
        plan = ProcFaultPlan(seed=1, forced=((1, "crash"),))
        outcome = supervise(
            [ToySpec(shard_id=k, seed=5) for k in range(2)],
            inline=False,
            proc_faults=plan,
            config=SupervisorConfig(timeout_s=60.0),
        )
        record = outcome.report.records[1]
        assert record.status == "retried"
        assert record.failures[0].kind == "crashed"
        assert record.failures[0].exitcode == plan.crash_exit_code
        clean = supervise([ToySpec(shard_id=1, seed=5)])
        assert (
            outcome.results[1].report.fingerprint()
            == clean.results[1].report.fingerprint()
        )

    def test_unpicklable_result_is_an_error(self):
        outcome = ShardSupervisor(
            unpicklable_task,
            inline=False,
            config=SupervisorConfig(max_attempts=1, timeout_s=60.0),
        ).run([ToySpec(shard_id=0)])
        assert outcome.results == {}
        (failure,) = outcome.report.records[0].failures
        assert failure.kind == "error"
        assert "cannot pickle '_thread.lock' object" in failure.detail

    def test_spawn_kills_a_real_hang_at_the_timeout(self):
        plan = ProcFaultPlan(seed=1, forced=((0, "hang"),), hang_s=120.0)
        outcome = supervise(
            [ToySpec(shard_id=0, seed=5)],
            inline=False,
            proc_faults=plan,
            config=SupervisorConfig(timeout_s=1.0, kill_grace_s=1.0),
        )
        record = outcome.report.records[0]
        assert record.status == "retried"
        assert record.failures[0].kind == "timeout"
        assert outcome.results[0].report.payload == 5

    def test_spawn_matches_inline_failure_sequence(self):
        plan = ProcFaultPlan(
            seed=2, forced=((0, "crash"), (1, "corrupt"))
        )
        specs = [ToySpec(shard_id=k, seed=9) for k in range(2)]
        spawned = supervise(
            specs, inline=False, proc_faults=plan,
            config=SupervisorConfig(timeout_s=60.0),
        )
        inline = supervise(specs, proc_faults=plan)
        assert [
            (f.shard_id, f.kind) for f in spawned.report.failures
        ] == [(f.shard_id, f.kind) for f in inline.report.failures]
        for shard_id in (0, 1):
            assert (
                spawned.results[shard_id].report.fingerprint()
                == inline.results[shard_id].report.fingerprint()
            )


class TestFaultDecisions:
    """The supervisor alone decides process faults: once per primary
    attempt, numbered by its own count, never for a witness run."""

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "spawn"])
    def test_decided_once_per_primary_attempt(self, inline):
        plan = RecordingPlan(
            ProcFaultPlan(
                forced=((0, "crash"), (1, "corrupt")),
                max_faulty_attempts=2,
            )
        )
        outcome = supervise(
            [ToySpec(shard_id=k, seed=5) for k in range(2)],
            inline=inline,
            proc_faults=plan,
            config=SupervisorConfig(witness=True, timeout_s=60.0),
        )
        # Three primary attempts per shard (two faulty, one clean);
        # each shard's accepted attempt is witnessed without a draw.
        assert sorted(plan.calls) == [
            (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
        ]
        assert [
            (failure.shard_id, failure.attempt, failure.kind)
            for failure in outcome.report.failures
        ] == [
            (0, 1, "crashed"), (0, 2, "crashed"),
            (1, 1, "integrity"), (1, 2, "integrity"),
        ]
        assert [
            outcome.results[shard_id].report.payload for shard_id in (0, 1)
        ] == [5, 105]
