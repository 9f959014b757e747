"""Seeded process-fault injection: the chaos monkey for shard workers.

:mod:`repro.faults` injects faults into the *simulated* hardware; a
:class:`ProcFaultPlan` injects faults into the *real* orchestration
layer -- the spawn workers themselves.  A plan is handed to the
:class:`~repro.resilience.supervisor.ShardSupervisor`, which asks it
once per primary attempt (never for a witness run) and applies the
answer around the shard task:

* ``crash``    -- the worker kills itself via ``os._exit`` before
  producing a result (the supervisor sees a dead process);
* ``hang``     -- the worker sleeps ``hang_s`` before running (the
  supervisor's wall-clock timeout fires and kills it);
* ``corrupt``  -- the worker completes, declares its fingerprint,
  then mutates its report (integrity validation catches the stale
  declaration);
* ``truncate`` -- the worker returns a payload that is not a shard
  result at all (schema validation catches it);
* ``forge``    -- the worker mutates its report *and* re-declares a
  self-consistent fingerprint (only witness quorum catches it).

Decisions are a pure function of ``(seed, shard_id, attempt)`` via
SHA-1 -- no RNG state, no wall clock -- so a supervised run under
injection is exactly as replayable as the simulation it wraps:
same plan, same kills, same retries, same merged fingerprint.

This module is stdlib-only and imports nothing from
:mod:`repro.serving`, so the import graph stays acyclic.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.metrics import ordered_sum
from repro.validation import require_finite

__all__ = ["FAULT_KINDS", "ProcFaultPlan"]

#: Every fault kind a plan can decide, in threshold order.
FAULT_KINDS = ("crash", "hang", "corrupt", "truncate", "forge")

#: Kinds that tamper with an otherwise-complete result (applied after
#: the worker finishes, as opposed to killing/stalling it first).
TAMPER_KINDS = ("corrupt", "truncate", "forge")


def _unit(seed: int, shard_id: int, attempt: int) -> float:
    """A deterministic draw in ``[0, 1)`` for one (shard, attempt)."""
    digest = hashlib.sha1(
        ("procfault:%d:%d:%d" % (seed, shard_id, attempt)).encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class ProcFaultPlan:
    """A picklable, seeded schedule of worker-process faults.

    ``forced`` pins specific shards to specific kinds (the benchmarks
    use it: "shard 1 crashes, shard 2 hangs"); everything else draws
    from the rates.  ``max_faulty_attempts`` bounds injection per
    shard: attempts beyond it run clean, so a supervisor with
    ``max_attempts > max_faulty_attempts`` always converges -- the
    recovered run is bit-identical to a fault-free one because the
    sim seed never depends on the attempt number.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    forge_rate: float = 0.0
    #: Explicit (shard_id, kind) pins, consulted before the rates.
    forced: Tuple[Tuple[int, str], ...] = ()
    #: Attempts beyond this run clean (1 = first attempt only).
    max_faulty_attempts: int = 1
    #: How long a hanging worker sleeps; pair with a supervisor
    #: timeout below it or the worker just finishes late.
    hang_s: float = 3600.0
    #: The exit code a crashing worker dies with (audit breadcrumb).
    crash_exit_code: int = 87

    def __post_init__(self) -> None:
        # A NaN rate passes both bounds below and never fires.
        require_finite(**vars(self))
        rates = (
            self.crash_rate, self.hang_rate, self.corrupt_rate,
            self.truncate_rate, self.forge_rate,
        )
        if any(rate < 0.0 for rate in rates) or ordered_sum(rates) > 1.0:
            raise ValueError(
                "fault rates must be >= 0 and sum to <= 1, got %r"
                % (rates,)
            )
        for shard_id, kind in self.forced:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    "unknown forced fault kind %r for shard %r"
                    % (kind, shard_id)
                )
        if self.max_faulty_attempts < 0:
            raise ValueError(
                "max_faulty_attempts must be >= 0, got %r"
                % (self.max_faulty_attempts,)
            )
        if self.hang_s <= 0.0:
            raise ValueError("hang_s must be > 0, got %r" % (self.hang_s,))

    @property
    def may_hang(self) -> bool:
        """Whether any shard/attempt can draw a ``hang`` (a supervisor
        must have a timeout to recover from one)."""
        return self.hang_rate > 0.0 or any(
            kind == "hang" for _shard, kind in self.forced
        )

    def decide(self, shard_id: int, attempt: int) -> Optional[str]:
        """The fault (or ``None``) for one shard's attempt.

        Pure in ``(seed, shard_id, attempt)``: the same plan decides
        the same faults on every replay, inline or spawn.
        """
        if attempt > self.max_faulty_attempts:
            return None
        pinned: Dict[int, str] = dict(self.forced)
        if shard_id in pinned:
            return pinned[shard_id]
        draw = _unit(self.seed, shard_id, attempt)
        edge = 0.0
        for kind, rate in (
            ("crash", self.crash_rate),
            ("hang", self.hang_rate),
            ("corrupt", self.corrupt_rate),
            ("truncate", self.truncate_rate),
            ("forge", self.forge_rate),
        ):
            edge += rate
            if draw < edge:
                return kind
        return None

    def tamper(self, kind: str, result):
        """Apply a post-completion fault to an otherwise-good result.

        Duck-typed over any dataclass result with ``report`` /
        ``declared_fingerprint`` fields whose report carries
        ``horizon_s`` and ``fingerprint()`` -- in practice a
        ``ShardResult``.  ``truncate`` discards the result entirely
        (schema check trips); ``corrupt`` declares the untouched
        report's fingerprint (unless the result already declares one),
        then mutates the report under that now-stale declaration
        (cross-check trips); ``forge`` mutates *and* declares the
        mutated report's fingerprint (only a witness run disagrees).
        The mutated report is a ``dataclasses.replace`` copy sharing
        the original's ledger; ``fingerprint()`` renders whichever
        report it is called on, so each declaration is that report's
        own bytes.
        """
        if kind == "truncate":
            return {"shard_id": getattr(result, "shard_id", None),
                    "truncated": True}
        if kind not in ("corrupt", "forge"):
            raise ValueError("tamper cannot apply fault kind %r" % (kind,))
        declared = result.declared_fingerprint
        if kind == "corrupt" and declared is None:
            declared = result.report.fingerprint()
        report = dataclasses.replace(
            result.report, horizon_s=result.report.horizon_s + 1.0
        )
        if kind == "forge":
            declared = report.fingerprint()
        return dataclasses.replace(
            result, report=report, declared_fingerprint=declared
        )
