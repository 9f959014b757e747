"""ShardSupervisor: async per-shard dispatch under adult supervision.

The coordinator used to run its shards through a bare ``Pool.map`` --
one crashed worker aborted the whole run, one hung worker blocked it
forever, and whatever came back over the pipe was trusted verbatim.
The supervisor replaces that with per-shard managed processes:

* each shard attempt runs in its own spawn ``Process`` with a result
  ``Pipe``; the supervisor multiplexes over pipes and process
  sentinels, so a dead worker is noticed immediately and a silent one
  is killed at the wall-clock ``timeout_s``;
* every failure -- crash, timeout, task exception, schema/fingerprint
  integrity violation, witness disagreement -- becomes a structured
  :class:`ShardFailure` and a bounded retry (``max_attempts``);
* results pass :func:`~repro.resilience.integrity.validate_result`
  before acceptance -- a result declares its report fingerprint where
  it can change hands (pickled onto the spawn pipe or into a
  checkpoint, or tampered by a fault plan) and the supervisor
  recomputes every declaration it receives -- and ``witness=True``
  re-executes each shard clean and requires fingerprint agreement
  (duplicate-execution quorum of two);
* accepted results persist through an optional
  :class:`~repro.resilience.checkpoint.CheckpointStore`, so a re-run
  resumes completed shards instead of re-executing them.

Attempt-invariance is the load-bearing contract: a retry re-runs the
*same spec* (the sim seed never depends on the attempt), so whichever
attempt finally succeeds produces the same report fingerprint --
supervision recovers from host faults without perturbing a single
simulated bit.  A spec holds only the shard's inputs: the attempt
number lives on the supervisor's queue, and the supervisor alone asks
its ``proc_faults`` plan which process fault (if any) hits each
attempt.

Wall-clock time appears exactly once, in :func:`_now_s`, and is used
only for timeouts and failure diagnostics -- never anything that
feeds a fingerprint (REP001's discipline; the single read carries the
reviewed suppression).

The module is stdlib-only and duck-typed over specs/results (any
picklable value with a ``shard_id``), so :mod:`repro.resilience`
imports nothing from :mod:`repro.serving` and the import graph stays
acyclic.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Tuple

from repro.resilience.integrity import validate_result, witness_disagreement
from repro.resilience.procfaults import TAMPER_KINDS
from repro.validation import require_finite

__all__ = [
    "FAILURE_KINDS",
    "ShardFailure",
    "ShardRunRecord",
    "ShardSupervisor",
    "SupervisionError",
    "SupervisionOutcome",
    "SupervisionReport",
    "SupervisorConfig",
    "merge_records",
]

#: Every way one attempt can fail: the process died (``crashed``),
#: the wall-clock budget expired (``timeout``), the task raised
#: (``error``), the payload failed schema/fingerprint validation
#: (``integrity``), or a duplicate execution disagreed (``witness``).
FAILURE_KINDS = ("crashed", "timeout", "error", "integrity", "witness")


def _now_s() -> float:
    """The supervisor's only wall-clock read (timeouts/diagnostics;
    never fingerprint-bearing)."""
    return time.monotonic()  # lint: ignore[REP001]


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs (picklable; rides across sessions)."""

    #: Wall-clock budget per attempt; ``None`` disables the timeout
    #: (and with it recovery from hung workers).
    timeout_s: Optional[float] = None
    #: Attempts per shard before it is declared failed.
    max_attempts: int = 3
    #: Re-execute every shard clean and require fingerprint agreement.
    witness: bool = False
    #: Grace between ``terminate()`` and ``kill()`` for timed-out workers.
    kill_grace_s: float = 2.0

    def __post_init__(self) -> None:
        # A NaN timeout would never fire (``now >= nan`` is always
        # false), silently disabling hung-worker recovery.
        require_finite(**vars(self))
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError(
                "timeout_s must be > 0, got %r" % (self.timeout_s,)
            )
        if self.max_attempts < 1:
            raise ValueError(
                "max_attempts must be >= 1, got %r" % (self.max_attempts,)
            )
        if self.kill_grace_s <= 0.0:
            raise ValueError(
                "kill_grace_s must be > 0, got %r" % (self.kill_grace_s,)
            )


@dataclass(frozen=True)
class ShardFailure:
    """One attempt's structured post-mortem."""

    shard_id: int
    attempt: int
    kind: str
    detail: str
    exitcode: Optional[int] = None
    #: Wall-clock seconds the attempt ran (diagnostics only; 0.0 for
    #: inline-synthesized failures).
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
            "exitcode": self.exitcode,
            "wall_s": self.wall_s,
        }


@dataclass(frozen=True)
class ShardRunRecord:
    """One shard's supervision history: attempts, failures, outcome."""

    shard_id: int
    #: ``ok`` (clean first attempt), ``retried`` (succeeded after
    #: failures), ``resumed`` (loaded from checkpoint), ``failed``
    #: (attempts exhausted; the coordinator escalates).
    status: str
    attempts: int
    failures: Tuple[ShardFailure, ...] = ()
    resumed: bool = False

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "status": self.status,
            "attempts": self.attempts,
            "failures": [failure.to_dict() for failure in self.failures],
            "resumed": self.resumed,
        }


@dataclass(frozen=True)
class SupervisionReport:
    """The whole run's supervision ledger, shard-id ordered."""

    records: Tuple[ShardRunRecord, ...] = ()

    @property
    def failures(self) -> Tuple[ShardFailure, ...]:
        return tuple(
            failure
            for record in self.records
            for failure in record.failures
        )

    @property
    def failed_shards(self) -> Tuple[int, ...]:
        return tuple(
            record.shard_id
            for record in self.records
            if record.status == "failed"
        )

    @property
    def resumed_shards(self) -> Tuple[int, ...]:
        return tuple(
            record.shard_id
            for record in self.records
            if record.status == "resumed"
        )

    def counters(self) -> Dict[str, int]:
        """Flat supervision tallies (the obs wiring's source)."""
        tallies = {
            "attempts": sum(record.attempts for record in self.records),
            "retries": sum(
                max(0, record.attempts - 1) for record in self.records
            ),
            "resumed": len(self.resumed_shards),
            "failed": len(self.failed_shards),
        }
        for kind in FAILURE_KINDS:
            tallies["failures_" + kind] = sum(
                1 for failure in self.failures if failure.kind == kind
            )
        return tallies

    def to_dict(self) -> dict:
        return {
            "records": [record.to_dict() for record in self.records],
            "counters": self.counters(),
        }


class SupervisionError(RuntimeError):
    """A shard exhausted its attempts and nothing could absorb it."""

    def __init__(self, message: str, report: SupervisionReport) -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SupervisionOutcome:
    """Accepted results (by shard id) plus the supervision ledger."""

    results: Dict[int, object]
    report: SupervisionReport


def merge_records(
    base: Tuple[ShardRunRecord, ...], extra: Tuple[ShardRunRecord, ...]
) -> Tuple[ShardRunRecord, ...]:
    """Fold a follow-up supervision pass into an earlier ledger.

    The coordinator re-supervises an escalation target after folding
    failed shards' loads into it; the target's two passes merge into
    one record (attempts sum, failures concatenate, status reflects
    the combined history).
    """
    merged: Dict[int, ShardRunRecord] = {
        record.shard_id: record for record in base
    }
    for record in extra:
        prior = merged.get(record.shard_id)
        if prior is None:
            merged[record.shard_id] = record
            continue
        attempts = prior.attempts + record.attempts
        failures = prior.failures + record.failures
        if record.status == "failed":
            status = "failed"
        elif failures or attempts > 1:
            status = "retried"
        else:
            status = record.status
        merged[record.shard_id] = ShardRunRecord(
            shard_id=record.shard_id,
            status=status,
            attempts=attempts,
            failures=failures,
            resumed=prior.resumed or record.resumed,
        )
    return tuple(merged[shard_id] for shard_id in sorted(merged))


def _supervised_entry(
    task: Callable, spec, conn, fault: Optional[str], plan
) -> None:
    """The spawn child's wrapper: run the task, pipe the verdict.

    Top-level so the spawn start method can pickle a reference to it.
    ``fault`` is the supervisor's decision for this attempt and
    ``plan`` the process-fault plan it came from.  An injected
    ``crash`` kills the child before the task runs (``os._exit``, no
    teardown -- what a segfault or OOM kill looks like from outside)
    and a ``hang`` sleeps before it; a tamper kind sabotages the
    finished result before the send, so a corrupt result crosses the
    pipe carrying its stale declaration.  An exception -- raised by
    the task, or by pickling its result for the pipe (where a shard
    result declares its fingerprint) -- travels back as a structured
    ``("error", traceback)`` message instead of poisoning the
    supervisor.
    """
    if fault == "crash":
        os._exit(plan.crash_exit_code)
    if fault == "hang":
        time.sleep(plan.hang_s)
    try:
        try:
            result = task(spec)
            if fault in TAMPER_KINDS:
                result = plan.tamper(fault, result)
            # ``send`` pickles the whole message before writing a byte,
            # so a result that fails to pickle leaves the pipe clean.
            conn.send(("ok", result))
        except BaseException:
            conn.send(("error", traceback.format_exc(limit=32)))
    finally:
        conn.close()


@dataclass
class _Work:
    """One queued attempt: a primary run, or a witness re-execution
    checking an already-validated primary result (numbered like the
    primary it checks)."""

    spec: object
    attempt: int
    witness_of: Optional[object] = None


@dataclass
class _Running:
    """One live spawn attempt."""

    work: _Work
    process: object
    conn: object
    started_s: float
    deadline_s: Optional[float]


@dataclass
class _ShardState:
    """Mutable per-shard supervision state."""

    spec: object
    attempt: int = 1
    failures: List[ShardFailure] = field(default_factory=list)
    result: Optional[object] = None
    resumed: bool = False


class ShardSupervisor:
    """Runs a batch of shard specs to acceptance or exhaustion.

    ``task`` is the worker entry point (``run_shard`` in production;
    any picklable top-level callable in tests).  ``proc_faults`` is an
    optional :class:`~repro.resilience.procfaults.ProcFaultPlan` (or
    anything with its ``decide``/``tamper``/``crash_exit_code``/
    ``hang_s``/``may_hang``): the supervisor asks it once per primary
    attempt, never for a witness run, which fault hits the attempt.
    A spawn child really dies, stalls or tampers with its result.
    ``inline=True`` executes attempts in the calling process, where a
    crash, or a hang the timeout would kill, is *pre-empted*: the
    supervisor records the failure the spawn run would have seen, so
    an injected crash cannot take the test process down, while tamper
    kinds really execute and really trip validation.  The
    failure/retry sequence, and therefore every accepted result, is
    identical between inline and spawn.
    """

    def __init__(
        self,
        task: Callable,
        config: Optional[SupervisorConfig] = None,
        inline: bool = False,
        processes: Optional[int] = None,
        checkpoint: Optional[object] = None,
        proc_faults: Optional[object] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise ValueError(
                "processes must be >= 1, got %r" % (processes,)
            )
        self.task = task
        self.config = config if config is not None else SupervisorConfig()
        self.inline = inline
        self.processes = processes
        self.checkpoint = checkpoint
        self.proc_faults = proc_faults

    # -- public entry ----------------------------------------------------
    def run(self, specs) -> SupervisionOutcome:
        """Supervise every spec; return accepted results + ledger.

        Never raises for shard failures -- exhausted shards are simply
        absent from ``results`` and marked ``failed`` in the ledger;
        deciding whether that is fatal (or escalatable) is the
        caller's policy.
        """
        specs = sorted(specs, key=lambda spec: spec.shard_id)
        ids = [spec.shard_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids in specs: %r" % (ids,))
        if (
            self.proc_faults is not None
            and self.proc_faults.may_hang
            and self.config.timeout_s is None
        ):
            raise ValueError(
                "ProcFaultPlan can draw 'hang' but the supervisor "
                "has no timeout_s; a hung worker would never be "
                "recovered"
            )
        states: Dict[int, _ShardState] = {}
        queue: deque = deque()
        for spec in specs:
            state = _ShardState(spec=spec)
            states[spec.shard_id] = state
            cached = (
                self.checkpoint.load(spec)
                if self.checkpoint is not None
                else None
            )
            if cached is not None and validate_result(spec, cached) is None:
                state.result = cached
                state.resumed = True
                continue
            queue.append(_Work(spec=spec, attempt=1))
        if self.inline:
            self._drain_inline(queue, states)
        else:
            self._drain_spawn(queue, states)
        report = SupervisionReport(
            records=tuple(
                self._record(states[shard_id]) for shard_id in sorted(states)
            )
        )
        if self.checkpoint is not None:
            self.checkpoint.write_manifest(report.to_dict())
        results = {
            shard_id: state.result
            for shard_id, state in states.items()
            if state.result is not None
        }
        return SupervisionOutcome(results=results, report=report)

    def _fault(self, work: _Work) -> Optional[str]:
        """The process fault (or ``None``) for one queued attempt: the
        plan's decision for a primary attempt; a witness run always
        re-executes clean."""
        if self.proc_faults is None or work.witness_of is not None:
            return None
        return self.proc_faults.decide(work.spec.shard_id, work.attempt)

    def _record(self, state: _ShardState) -> ShardRunRecord:
        if state.resumed:
            status = "resumed"
        elif state.result is None:
            status = "failed"
        elif state.failures or state.attempt > 1:
            status = "retried"
        else:
            status = "ok"
        return ShardRunRecord(
            shard_id=state.spec.shard_id,
            status=status,
            attempts=0 if state.resumed else state.attempt,
            failures=tuple(state.failures),
            resumed=state.resumed,
        )

    # -- attempt outcomes (shared by inline and spawn) -------------------
    def _register_failure(
        self, states: Dict[int, _ShardState], queue: deque, work: _Work,
        kind: str, detail: str, exitcode: Optional[int] = None,
        wall_s: float = 0.0,
    ) -> None:
        """Record one attempt's failure; queue the shard's next attempt
        while its budget lasts."""
        state = states[work.spec.shard_id]
        state.failures.append(
            ShardFailure(
                shard_id=work.spec.shard_id,
                attempt=work.attempt,
                kind=kind,
                detail=detail,
                exitcode=exitcode,
                wall_s=wall_s,
            )
        )
        if state.attempt < self.config.max_attempts:
            state.attempt += 1
            queue.append(_Work(spec=state.spec, attempt=state.attempt))

    def _accept(
        self, states: Dict[int, _ShardState], spec, result
    ) -> None:
        state = states[spec.shard_id]
        state.result = result
        if self.checkpoint is not None:
            self.checkpoint.save(spec, result)

    def _handle_result(
        self, states: Dict[int, _ShardState], queue: deque,
        work: _Work, result, wall_s: float,
    ) -> None:
        """Validate one received payload; accept, witness, or retry."""
        spec = work.spec
        reason = validate_result(spec, result)
        if work.witness_of is not None:
            if reason is None:
                reason = witness_disagreement(work.witness_of, result)
            if reason is None:
                self._accept(states, spec, work.witness_of)
            else:
                self._register_failure(
                    states, queue, work, "witness", reason, wall_s=wall_s
                )
            return
        if reason is not None:
            self._register_failure(
                states, queue, work, "integrity", reason, wall_s=wall_s
            )
            return
        if self.config.witness:
            queue.append(
                _Work(spec=spec, attempt=work.attempt, witness_of=result)
            )
            return
        self._accept(states, spec, result)

    # -- inline execution ------------------------------------------------
    def _drain_inline(
        self, queue: deque, states: Dict[int, _ShardState]
    ) -> None:
        plan = self.proc_faults
        while queue:
            work = queue.popleft()
            fault = self._fault(work)
            if fault == "crash":
                self._register_failure(
                    states, queue, work, "crashed",
                    "injected crash (inline pre-emption)",
                    exitcode=plan.crash_exit_code,
                )
                continue
            if (
                fault == "hang"
                and self.config.timeout_s is not None
                and plan.hang_s >= self.config.timeout_s
            ):
                self._register_failure(
                    states, queue, work, "timeout",
                    "injected hang (inline pre-emption): %.0fs sleep vs "
                    "%.1fs timeout" % (plan.hang_s, self.config.timeout_s),
                )
                continue
            try:
                result = self.task(work.spec)
            except Exception:
                self._register_failure(
                    states, queue, work, "error",
                    traceback.format_exc(limit=32),
                )
                continue
            if fault in TAMPER_KINDS:
                result = plan.tamper(fault, result)
            self._handle_result(states, queue, work, result, 0.0)

    # -- spawn execution -------------------------------------------------
    def _drain_spawn(
        self, queue: deque, states: Dict[int, _ShardState]
    ) -> None:
        context = multiprocessing.get_context("spawn")
        # ``running`` is keyed by shard id, so more slots than shards
        # would never fill.
        slots = max(
            1, min(len(states), self.processes or os.cpu_count() or 1)
        )
        running: Dict[int, _Running] = {}
        try:
            while queue or running:
                while queue and len(running) < slots:
                    work = queue.popleft()
                    running[work.spec.shard_id] = self._launch(context, work)
                self._poll(running, states, queue)
        finally:
            for run in running.values():
                self._kill(run.process)
                run.conn.close()

    def _launch(self, context, work: _Work) -> _Running:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_entry,
            args=(
                self.task, work.spec, child_conn, self._fault(work),
                self.proc_faults,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        started_s = _now_s()
        deadline_s = (
            None
            if self.config.timeout_s is None
            else started_s + self.config.timeout_s
        )
        return _Running(
            work=work,
            process=process,
            conn=parent_conn,
            started_s=started_s,
            deadline_s=deadline_s,
        )

    def _poll(
        self, running: Dict[int, _Running],
        states: Dict[int, _ShardState], queue: deque,
    ) -> None:
        """One multiplexed wait over result pipes + process sentinels,
        then a deterministic (shard-id ordered) sweep of outcomes."""
        handles = []
        deadlines = []
        for run in running.values():
            handles.append(run.conn)
            handles.append(run.process.sentinel)
            if run.deadline_s is not None:
                deadlines.append(run.deadline_s)
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - _now_s())
        mp_connection.wait(handles, timeout)
        finished: List[int] = []
        for shard_id in sorted(running):
            run = running[shard_id]
            wall_s = _now_s() - run.started_s
            if run.conn.poll():
                try:
                    tag, payload = run.conn.recv()
                except Exception:
                    tag, payload = None, None
                run.process.join(self.config.kill_grace_s)
                self._kill(run.process)
                if tag == "ok":
                    self._handle_result(
                        states, queue, run.work, payload, wall_s
                    )
                else:
                    self._register_failure(
                        states, queue, run.work,
                        "error" if tag == "error" else "crashed",
                        payload
                        if isinstance(payload, str)
                        else "malformed supervision message from worker",
                        exitcode=run.process.exitcode,
                        wall_s=wall_s,
                    )
            elif not run.process.is_alive():
                run.process.join()
                self._register_failure(
                    states, queue, run.work, "crashed",
                    "worker exited (code %r) without a result"
                    % (run.process.exitcode,),
                    exitcode=run.process.exitcode,
                    wall_s=wall_s,
                )
            elif run.deadline_s is not None and _now_s() >= run.deadline_s:
                self._kill(run.process)
                self._register_failure(
                    states, queue, run.work, "timeout",
                    "attempt exceeded the %.1fs wall-clock timeout and "
                    "was killed" % (self.config.timeout_s,),
                    exitcode=run.process.exitcode,
                    wall_s=wall_s,
                )
            else:
                continue
            run.conn.close()
            finished.append(shard_id)
        for shard_id in finished:
            del running[shard_id]

    def _kill(self, process) -> None:
        """Terminate, then escalate to SIGKILL after the grace."""
        if not process.is_alive():
            return
        process.terminate()
        process.join(self.config.kill_grace_s)
        if process.is_alive():
            process.kill()
            process.join(self.config.kill_grace_s)
