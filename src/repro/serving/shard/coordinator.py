"""FleetCoordinator: launch router shards under supervision, re-home
around dead ones, merge their reports into one deterministic ledger.

The coordinator is the fleet-of-fleets control plane.  It turns one
run description (fleet spec, router config, and each shard's loads
and optional fault trace, placed by the caller) into per-shard
:class:`~repro.serving.shard.worker.ShardSpec` values, executes them
-- spawn workers under a :class:`~repro.resilience.ShardSupervisor`
by default, inline for debugging and coverage -- and folds the
results back together:

1. shards run independently under supervision: per-attempt wall-clock
   timeouts, kill-and-retry on crash/hang/corruption (bounded by the
   supervision config), integrity-validated results, optional
   checkpoint/resume through ``resume_dir``;
2. host-level escalation: a shard that exhausts its retries is
   treated exactly like a chaos-dead one -- its *entire* load is
   folded into the least-busy healthy shard, which re-runs with the
   extra tenants, so zero requests are lost to host faults;
3. cross-shard failover: a shard whose fleet chaos-degraded into
   dead-platform rejections (:data:`DEAD_SHARD_REASONS`) is *dead*;
   its rejected requests are re-homed -- original arrival times and
   difficulties, hence original deadline clocks -- onto the
   least-loaded healthy shard, which re-runs with the extra load;
4. per-shard reports are platform-qualified (``s<k>/...``) and merged
   via :meth:`RouterReport.merge`; spans are stitched under a global
   ``run`` root with fingerprint-neutral ``supervise`` spans and
   ``supervisor_*`` metrics recording the supervision history.

Determinism: every simulated step is a pure function of (fleet spec,
config, loads, faults, seed, n_shards), and supervision retries
re-run identical specs (the sim seed never depends on the attempt),
so same-seed coordinator runs produce bit-identical merged
fingerprints regardless of worker scheduling, retries, or which
attempt of a flaky worker finally landed.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults.events import FaultTrace
from repro.obs.metrics import MetricsRegistry, ordered_sum
from repro.obs.span import TraceBuffer
from repro.resilience import (
    CheckpointStore,
    ShardRunRecord,
    ShardSupervisor,
    SupervisionError,
    SupervisionReport,
    SupervisorConfig,
    merge_records,
)
from repro.serving.report import RouterReport
from repro.serving.request import Tenant, TenantLoad
from repro.serving.router import RouterConfig
from repro.serving.shard.merge import (
    qualify_report,
    stitch_spans,
    strip_requests,
)
from repro.serving.shard.planner import shard_seed
from repro.serving.shard.worker import (
    FleetSpec,
    ShardResult,
    ShardSpec,
    run_shard,
)
from repro.workloads.generators import RequestTrace, merge_traces

__all__ = ["FleetCoordinator", "FleetRunOutcome"]

#: Reject reasons only a chaos-dead platform produces: ``outage`` is
#: a request whose in-shard failover found no live platform,
#: ``stranded`` a queued request whose platform died under it.  Any
#: shard reporting one of these is *dead* for cross-shard failover.
DEAD_SHARD_REASONS = ("outage", "stranded")


@dataclass(frozen=True)
class FleetRunOutcome:
    """The merged report plus per-shard diagnostics."""

    #: The global, fingerprintable ledger (all shards merged).
    report: RouterReport
    #: Each shard's own (qualified, post-failover) report, by shard id.
    shard_reports: Tuple[RouterReport, ...]
    #: Each shard's derived RNG seed, by shard id.
    seeds: Tuple[int, ...]
    #: Requests re-homed off dead shards during failover.
    rehomed: int
    #: Shards that rejected requests with reason ``outage``.
    dead_shards: Tuple[int, ...]
    #: The healthy shard that absorbed the re-homed load (None when
    #: no failover happened).
    failover_target: Optional[int]
    #: The stitched global span tree (None unless instrumented).
    buffer: Optional[TraceBuffer] = None
    #: The supervision ledger: per-shard attempts/failures/outcomes.
    supervision: Optional[SupervisionReport] = None
    #: Shards whose retries were exhausted; their whole load was
    #: absorbed by :attr:`escalation_target` (host-level re-homing).
    escalated: Tuple[int, ...] = ()
    #: The healthy shard that absorbed escalated shards' loads.
    escalation_target: Optional[int] = None
    #: Per-shard supervision status (``ok``/``retried``/``resumed``/
    #: ``dead``), by shard id.
    statuses: Tuple[str, ...] = ()


class FleetCoordinator:
    """Launches 1..N router shards over one fleet description.

    ``inline=True`` runs every shard in the calling process (no
    spawn) -- bit-identical results, since workers are deterministic
    either way; an injected crash or hang is pre-empted by the
    supervisor rather than really executed, with the same
    failure/retry sequence.  Every attempt routes on
    ``fleet.deployed()`` (:meth:`FleetSpec.deployed`), a fresh copy of
    the one build the fleet spec keeps: inline attempts share this
    coordinator's spec, so the fleet is built at most once in its
    lifetime (never while every shard resumes from a checkpoint), and
    each spawn worker builds its own.  A copy's caches start where a
    fresh build's would, so each shard relays the same engine events
    it would on its own build.

    ``n_shards=1`` is the degenerate case: no platform qualification,
    no shard obs labels, and a merged report whose fingerprint equals
    the plain single-router fingerprint.

    ``processes`` caps the number of concurrently live spawn workers
    (default: the core count; never more than one per shard).
    ``supervision`` is the :class:`~repro.resilience.SupervisorConfig`
    policy (timeout, retry budget, witness mode); ``proc_faults`` is a
    :class:`~repro.resilience.ProcFaultPlan` handed to every
    supervisor pass -- first run, escalation and failover re-runs --
    which decides each attempt's process fault; and
    ``resume_dir`` makes completed shard results durable, so a rerun
    after a partial failure executes only the shards that failed.

    Spawn mode follows the standard ``multiprocessing`` contract: a
    script calling :meth:`run` at import time must guard the call
    with ``if __name__ == "__main__":`` or every worker re-runs it
    while bootstrapping.  A ``__main__`` with no real file (stdin
    scripts) is rejected up front -- see :meth:`_check_spawnable`.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        config: Optional[RouterConfig] = None,
        n_shards: int = 1,
        seed: int = 0,
        inline: bool = False,
        controller: Optional[object] = None,
        processes: Optional[int] = None,
        supervision: Optional[SupervisorConfig] = None,
        proc_faults: Optional[object] = None,
        resume_dir: Optional[str] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %r" % (n_shards,))
        if processes is not None and processes < 1:
            raise ValueError(
                "processes must be >= 1, got %r" % (processes,)
            )
        self.fleet = fleet
        self.config = config if config is not None else RouterConfig()
        self.n_shards = n_shards
        self.seed = seed
        self.inline = inline
        #: Optional picklable controller recipe (see
        #: :attr:`ShardSpec.controller`): every shard builds its own
        #: fresh plane from it, so predictive state never crosses the
        #: process boundary.
        self.controller = controller
        self.processes = processes
        self.supervision = (
            supervision if supervision is not None else SupervisorConfig()
        )
        self.proc_faults = proc_faults
        self.checkpoint = (
            CheckpointStore(resume_dir) if resume_dir is not None else None
        )

    # -- public entry ----------------------------------------------------
    def run(
        self,
        shard_loads: Sequence[Sequence[TenantLoad]],
        shard_faults: Optional[Sequence[Optional[FaultTrace]]] = None,
        instrument: bool = False,
    ) -> FleetRunOutcome:
        """Execute every shard under supervision and merge.

        ``shard_loads`` holds one tenant-load list per shard, and
        ``shard_faults`` (default: none) one fault trace per shard on
        that shard's bare platform names, ``None`` for a clean shard.
        Entry ``k`` of each goes to shard ``k`` unchanged; a list whose
        length is not ``n_shards`` raises :class:`ValueError`.

        Raises :class:`~repro.resilience.SupervisionError` only when
        a shard exhausts its retries *and* nothing can absorb its
        load (single shard, resilience disabled, or no healthy
        shards); completed shards are checkpointed first when a
        ``resume_dir`` is configured, so the rerun is incremental.
        """
        if shard_faults is None:
            shard_faults = [None] * self.n_shards
        for field, entries in (
            ("shard_loads", shard_loads), ("shard_faults", shard_faults),
        ):
            if len(entries) != self.n_shards:
                raise ValueError(
                    "%s has %d entries for %d shards"
                    % (field, len(entries), self.n_shards)
                )
        specs = [
            ShardSpec(
                shard_id=shard_id,
                n_shards=self.n_shards,
                fleet=self.fleet,
                config=self.config,
                loads=tuple(shard_loads[shard_id]),
                faults=shard_faults[shard_id],
                seed=shard_seed(self.seed, shard_id),
                instrument=instrument,
                controller=self.controller,
            )
            for shard_id in range(self.n_shards)
        ]
        supervised = self._supervise(specs)
        records = supervised.report.records
        results: List[Optional[ShardResult]] = [
            supervised.results.get(shard_id)
            for shard_id in range(self.n_shards)
        ]
        escalated: List[int] = []
        escalation_target: Optional[int] = None
        failed = [
            shard_id
            for shard_id in range(self.n_shards)
            if results[shard_id] is None
        ]
        if failed:
            names = ", ".join("s%d" % shard_id for shard_id in failed)
            if self.n_shards == 1 or not self.config.resilience:
                raise SupervisionError(
                    "shard(s) %s exhausted their retry budget and "
                    "escalation is unavailable (%s)"
                    % (
                        names,
                        "single shard"
                        if self.n_shards == 1
                        else "resilience disabled",
                    ),
                    SupervisionReport(records),
                )
            # A retry-exhausted shard is treated like a chaos-dead one,
            # except nothing of it survives: its *entire* load moves.
            # Its fault schedule does not travel -- it addressed
            # platforms that no longer run.
            escalation_target, records = self._rehome(
                specs, results, records,
                [
                    load
                    for shard_id in failed
                    for load in specs[shard_id].loads
                ],
                "escalation",
            )
            if escalation_target is None:
                raise SupervisionError(
                    "shard(s) %s exhausted their retry budget and no "
                    "healthy shard remains to absorb their load" % (names,),
                    SupervisionReport(records),
                )
            escalated = failed
        # Cross-shard failover: a dead shard's rejected requests (its
        # in-shard failover already rescued what it could) re-home,
        # with their original arrival clocks, onto a healthy shard,
        # and are stripped from the dead shard's ledger afterwards so
        # the merged report counts each request exactly once.  *Every*
        # rejection moves -- a dead fleet also rejects with capacity
        # reasons like ``saturated``, and the healthy target is the
        # honest judge of whether those were chaos casualties.
        dead: List[int] = []
        target: Optional[int] = None
        stranded: Dict[int, list] = {}
        if self.n_shards > 1 and self.config.resilience:
            outage = {
                shard_id: result.report.ledger.columns("rejected")
                for shard_id, result in enumerate(results)
                if result is not None and self._is_dead(result.report)
            }
            dead = sorted(outage)
            if dead:
                target, records = self._rehome(
                    specs, results, records,
                    _stranded_loads([outage[shard_id] for shard_id in dead]),
                    "failover",
                )
            if target is not None:
                stranded = {
                    shard_id: list(outage[shard_id]["rid"])
                    for shard_id in dead
                }
        reports = [
            result.report if result is not None else RouterReport()
            for result in results
        ]
        for shard_id, rids in stranded.items():
            reports[shard_id] = strip_requests(reports[shard_id], rids)
        if self.n_shards > 1:
            reports = [
                qualify_report(report, shard_id)
                for shard_id, report in enumerate(reports)
            ]
        merged = RouterReport.merge(reports)
        supervision = SupervisionReport(records)
        statuses = self._statuses(records, escalated)
        merged = self._attach_supervision_obs(merged, supervision, escalated)
        buffer = (
            stitch_spans(
                [result for result in results if result is not None],
                merged.horizon_s,
                self.n_shards,
                supervision=supervision,
            )
            if instrument
            else None
        )
        return FleetRunOutcome(
            report=merged,
            shard_reports=tuple(reports),
            seeds=tuple(spec.seed for spec in specs),
            rehomed=sum(len(rids) for rids in stranded.values()),
            dead_shards=tuple(dead),
            failover_target=target,
            buffer=buffer,
            supervision=supervision,
            escalated=tuple(escalated),
            escalation_target=escalation_target,
            statuses=statuses,
        )

    # -- execution -------------------------------------------------------
    def _supervise(self, specs: Sequence[ShardSpec]):
        """Run specs through a fresh supervisor (inline or spawn)."""
        if not self.inline:
            self._check_spawnable()
        supervisor = ShardSupervisor(
            run_shard,
            config=self.supervision,
            inline=self.inline,
            processes=self.processes,
            checkpoint=self.checkpoint,
            proc_faults=self.proc_faults,
        )
        return supervisor.run(specs)

    @staticmethod
    def _check_spawnable() -> None:
        """Refuse to spawn when workers cannot re-import ``__main__``.

        Spawn bootstraps each worker by re-running the parent's main
        script from its path.  A ``__main__`` without a real file --
        ``python - <<EOF`` heredocs report ``<stdin>`` -- makes every
        worker die during bootstrap and the supervisor kill-and-retry
        to exhaustion for nothing.  Fail fast with the fix instead.
        """
        main = sys.modules.get("__main__")
        main_file = getattr(main, "__file__", None)
        if main_file is not None and not os.path.exists(main_file):
            raise RuntimeError(
                "spawn workers cannot re-import __main__ from %r "
                "(script fed via stdin?); run from a real file or use "
                "FleetCoordinator(..., inline=True)" % (main_file,)
            )

    # -- re-homing (escalation and failover) ----------------------------
    def _rehome(
        self,
        specs: List[ShardSpec],
        results: List[Optional[ShardResult]],
        records: Tuple[ShardRunRecord, ...],
        extra_loads: Sequence[TenantLoad],
        purpose: str,
    ) -> Tuple[Optional[int], Tuple[ShardRunRecord, ...]]:
        """Fold ``extra_loads`` into a healthy shard and re-run it.

        Healthy means it has a result and its fleet is not chaos-dead;
        the target is the healthy shard with the least total busy
        time (ties to the lowest shard id).  It re-runs supervised
        with the extra tenants, whose requests keep their original
        arrival clocks, and its new spec and result replace the old
        ones in ``specs`` and ``results``.  Returns the target and the
        folded supervision records, or ``None`` and ``records``
        unchanged when no shard is healthy.  Raises
        :class:`~repro.resilience.SupervisionError` when the re-run
        itself exhausts its retries.
        """
        healthy = [
            shard_id
            for shard_id, result in enumerate(results)
            if result is not None and not self._is_dead(result.report)
        ]
        if not healthy:
            return None, records
        target = min(
            healthy,
            key=lambda shard_id: (
                ordered_sum(
                    stats.busy_s
                    for stats in results[shard_id].report.platforms
                ),
                shard_id,
            ),
        )
        spec = _fold_loads(specs[target], extra_loads)
        rerun = self._supervise([spec])
        records = merge_records(records, rerun.report.records)
        result = rerun.results.get(target)
        if result is None:
            raise SupervisionError(
                "%s target s%d itself exhausted its retry budget"
                % (purpose, target),
                SupervisionReport(records),
            )
        specs[target] = spec
        results[target] = result
        return target, records

    @staticmethod
    def _is_dead(report: RouterReport) -> bool:
        """Whether one shard's report shows a chaos-dead fleet.

        Two signatures: an explicit dead-platform reject reason
        (:data:`DEAD_SHARD_REASONS`), or injected outages together
        with *any* rejections -- an outage that lands before traffic
        arrives leaves no request in flight to tag with ``outage``,
        so its casualties surface as plain admission rejects.
        """
        reasons = set(report.ledger.columns("rejected")["reason"])
        if reasons.intersection(DEAD_SHARD_REASONS):
            return True
        resilience = report.resilience
        return (
            resilience is not None
            and resilience.outages > 0
            and report.n_rejected > 0
        )

    # -- supervision surfacing -------------------------------------------
    def _statuses(
        self,
        records: Tuple[ShardRunRecord, ...],
        escalated: List[int],
    ) -> Tuple[str, ...]:
        """Per-shard supervision status for tables/JSON (``failed``
        shards surface as ``dead`` -- from the fleet's point of view
        a retry-exhausted shard and a chaos-dead one are the same
        casualty)."""
        by_id = {record.shard_id: record for record in records}
        statuses = []
        for shard_id in range(self.n_shards):
            record = by_id.get(shard_id)
            if shard_id in escalated or (
                record is not None and record.status == "failed"
            ):
                statuses.append("dead")
            elif record is None:
                statuses.append("ok")
            else:
                statuses.append(record.status)
        return tuple(statuses)

    @staticmethod
    def _attach_supervision_obs(
        report: RouterReport,
        supervision: SupervisionReport,
        escalated: List[int],
    ) -> RouterReport:
        """A copy of the merged report with supervision tallies folded
        into its obs section (``report`` itself when it has none).

        The series all carry the ``supervisor_`` prefix, which
        ``cache_neutral_obs_section`` strips before fingerprinting --
        supervision history (how many attempts the wall clock cost
        us) must never leak into sim fingerprints, the same
        discipline as engine cache temperature.  With one shard the
        merged report is the shard's own, which stays as it was.
        """
        if report.obs is None:
            return report
        registry = MetricsRegistry()
        tallies = supervision.counters()
        for key in sorted(tallies):
            registry.counter(
                "supervisor_%s_total" % key,
                "supervision tally: %s" % key.replace("_", " "),
            ).inc(tallies[key])
        registry.counter(
            "supervisor_escalated_total",
            "retry-exhausted shards re-homed onto a healthy shard",
        ).inc(len(escalated))
        merged = dict(report.obs.get("metrics", {}))
        merged.update(registry.snapshot())
        section = dict(report.obs)
        section["metrics"] = {
            series: merged[series] for series in sorted(merged)
        }
        return replace(report, obs=section)


def _fold_loads(spec: ShardSpec, extra: Sequence[TenantLoad]) -> ShardSpec:
    """The spec with extra tenant loads folded in.

    Tenant names stay unique as the router requires: a tenant the spec
    already serves has the extra trace merged into its existing one;
    any other tenant is appended.
    """
    loads = list(spec.loads)
    position = {load.tenant.name: index for index, load in enumerate(loads)}
    for load in extra:
        name = load.tenant.name
        if name in position:
            index = position[name]
            loads[index] = TenantLoad(
                loads[index].tenant,
                merge_traces(loads[index].trace, load.trace),
            )
        else:
            position[name] = len(loads)
            loads.append(load)
    return replace(spec, loads=tuple(loads))


def _stranded_loads(
    stranded: Sequence[Mapping[str, list]],
) -> List[TenantLoad]:
    """Stranded requests -- each dead shard's rejected records as
    columns -- regrouped by tenant (in name order) into fresh traces
    with their original arrivals and difficulties."""
    tenants: Dict[str, Tenant] = {}
    grouped: Dict[str, List[tuple]] = {}
    for columns in stranded:
        for rid, tenant, arrival_s, difficulty in zip(
            columns["rid"], columns["tenant_obj"], columns["arrival_s"],
            columns["difficulty"],
        ):
            tenants[tenant.name] = tenant
            grouped.setdefault(tenant.name, []).append(
                (arrival_s, rid, difficulty)
            )
    loads = []
    for name in sorted(grouped):
        requests = sorted(grouped[name], key=lambda row: (row[0], row[1]))
        trace = RequestTrace(
            arrivals_s=np.array([row[0] for row in requests], dtype=float),
            difficulty=np.array([row[2] for row in requests], dtype=float),
        )
        loads.append(TenantLoad(tenants[name], trace))
    return loads
