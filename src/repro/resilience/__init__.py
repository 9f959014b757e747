"""Host-level resilience: supervised shard execution for the fleet.

:mod:`repro.faults` makes the *simulated* hardware fail; this package
makes the *real* orchestration layer survive.  It supplies the
:class:`ShardSupervisor` the fleet coordinator runs its worker
processes under (forked from one preloaded forkserver where the
platform has one, spawned elsewhere) -- per-shard wall-clock timeouts
with kill-and-retry, structured :class:`ShardFailure` capture, result
integrity validation (schema + declared-vs-recomputed fingerprint
cross-check, optional duplicate-execution witness quorum),
checkpoint/resume of completed :class:`ShardResult`\\ s, and a seeded
:class:`ProcFaultPlan` chaos injector for the workers themselves
(self-kill, hang, corrupted / truncated / forged results).

Two invariants anchor the design:

* **attempt-invariance** -- a retry re-runs the same spec with the
  same sim seed (only the audit ``attempt`` counter changes), so the
  accepted report fingerprint is identical no matter which attempt
  produced it: a run that survives supervisor-level chaos is
  bit-identical to the fault-free same-seed run;
* **wall-clock containment** -- supervision is the only place real
  time exists, and it feeds timeouts and diagnostics only, never
  anything fingerprinted (the package sits inside REP001's
  determinism-lint scope with a single reviewed suppression).

The package is stdlib-only and duck-typed over specs/results, so it
imports nothing from :mod:`repro.serving` -- the serving layer
imports *us*, and the import graph stays acyclic.
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.integrity import validate_result, witness_disagreement
from repro.resilience.procfaults import FAULT_KINDS, ProcFaultPlan
from repro.resilience.supervisor import (
    FAILURE_KINDS,
    ShardFailure,
    ShardRunRecord,
    ShardSupervisor,
    SupervisionError,
    SupervisionOutcome,
    SupervisionReport,
    SupervisorConfig,
    merge_records,
)

__all__ = [
    "CheckpointStore",
    "FAILURE_KINDS",
    "FAULT_KINDS",
    "ProcFaultPlan",
    "ShardFailure",
    "ShardRunRecord",
    "ShardSupervisor",
    "SupervisionError",
    "SupervisionOutcome",
    "SupervisionReport",
    "SupervisorConfig",
    "merge_records",
    "validate_result",
    "witness_disagreement",
]
