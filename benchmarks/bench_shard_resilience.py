"""Shard-resilience benchmark: the price of surviving process faults.

Runs the 4-shard fleet-of-fleets under injected *process* faults --
worker crashes, hangs, and result corruption -- and holds the
supervision layer to the repo's determinism bar:

* a chaos run in which three of four shards crash, hang, or return a
  corrupted result recovers to a merged fingerprint **bit-identical**
  to the fault-free same-seed run (kill-and-retry re-runs the same
  spec with the same sim seed, so which attempt succeeds is
  unobservable in the ledger),
* zero requests are lost: the recovered run offers, completes, and
  rejects exactly the clean run's counts,
* in full mode the same palette runs through real spawn workers -- a
  worker really ``os._exit``\\ s, another really sleeps past the
  supervisor timeout and is killed -- and still merges bit-identically,
* and a checkpoint/resume round-trip re-executes **only** the shard
  that failed; the resumed merge again matches the clean fingerprint.

The measured recovery overhead (clean vs chaos wall-clock, retry
counts) lands in ``results/shard_resilience.json`` (BENCH JSON).
``--quick`` keeps every assertion armed but shrinks the storm and
skips the real-hang spawn run (CI smoke mode).
"""

import time

import pytest
from bench_router_overload import (
    BURST_FACTOR,
    BURST_FRACTION,
    OVERLOAD,
    REQUIREMENT,
    _fleet,
    _spec,
)
from common import emit, emit_json, run_once

from repro.analysis import format_table
from repro.resilience import (
    ProcFaultPlan,
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
from repro.serving.shard import shard_seed
from repro.workloads import bursty_trace

#: The chaos fleet: four shards, three of them faulted.
N_SHARDS = 4
N_PER_SHARD = 400
QUICK_N_PER_SHARD = 120

#: The storm seed (shared with bench_router_overload's trace).
SEED = 42

#: Tuning budget per platform -- kept small so the bench measures the
#: supervision layer, not the tuner.
TUNING_ITERATIONS = 8

#: One fault per faulted shard: a crash, a hang, a corrupted result.
FORCED_PALETTE = ((1, "crash"), (2, "hang"), (3, "corrupt"))

#: Timeout for the full-mode spawn run; the injected hang sleeps ten
#: times longer, so the hanging worker is always killed, never
#: finishes.
SPAWN_TIMEOUT_S = 12.0


def _fleet_spec():
    """The picklable twin of :func:`bench_router_overload._fleet`."""
    return FleetSpec(
        network="alexnet", spec=_spec(), gpus=("k20c", "tx1"),
        max_tuning_iterations=TUNING_ITERATIONS,
    )


def _shard_loads(n_per_shard, rate_hz):
    """One tenant per shard serving an MMPP storm at ``rate_hz``."""
    return [
        [
            TenantLoad(
                Tenant("tenant-s%d" % shard, REQUIREMENT, priority=1),
                bursty_trace(
                    n_requests=n_per_shard,
                    rate_hz=rate_hz,
                    burst_factor=BURST_FACTOR,
                    burst_fraction=BURST_FRACTION,
                    seed=shard_seed(SEED, shard),
                ),
            )
        ]
        for shard in range(N_SHARDS)
    ]


def _run(n_per_shard, inline=True, config=None, resume_dir=None,
         **kwargs):
    """One timed coordinator run; returns ``(outcome, wall_s)``."""
    _, fleet = _fleet()
    rate_hz = OVERLOAD * fleet.capacity_rps()
    coordinator = FleetCoordinator(
        _fleet_spec(), config or RouterConfig(), n_shards=N_SHARDS,
        seed=SEED, inline=inline, resume_dir=resume_dir, **kwargs,
    )
    start = time.perf_counter()
    outcome = coordinator.run(
        shard_loads=_shard_loads(n_per_shard, rate_hz)
    )
    return outcome, time.perf_counter() - start


def _row(scenario, outcome, wall_s):
    report = outcome.report
    counters = (
        outcome.supervision.counters() if outcome.supervision else {}
    )
    return (
        scenario,
        report.n_offered,
        report.n_completed,
        counters.get("retries", 0),
        "/".join(outcome.statuses),
        "%.2f" % wall_s,
        report.fingerprint()[:12],
    )


def _json_entry(outcome, wall_s):
    report = outcome.report
    counters = (
        outcome.supervision.counters() if outcome.supervision else {}
    )
    return {
        "fingerprint": report.fingerprint(),
        "offered": report.n_offered,
        "completed": report.n_completed,
        "rejected": report.n_rejected,
        "statuses": list(outcome.statuses),
        "retries": counters.get("retries", 0),
        "failure_kinds": sorted(
            {f.kind for f in outcome.supervision.failures}
            if outcome.supervision else ()
        ),
        "wall_s": wall_s,
    }


def reproduce_recovery(n_per_shard, spawn):
    """Clean vs chaos (inline, and optionally spawn) at 4 shards."""
    rows, data = [], {"per_shard_requests": n_per_shard, "runs": {}}

    clean, clean_wall = _run(n_per_shard)
    clean_fp = clean.report.fingerprint()
    rows.append(_row("clean", clean, clean_wall))
    data["runs"]["clean"] = _json_entry(clean, clean_wall)

    # Inline chaos: the supervisor pre-empts the injected crash and
    # hang with the identical failure/retry sequence, so the recovery
    # path is exercised without burning a real timeout.
    chaos, chaos_wall = _run(
        n_per_shard,
        proc_faults=ProcFaultPlan(
            seed=SEED, forced=FORCED_PALETTE, hang_s=3600.0
        ),
        supervision=SupervisorConfig(timeout_s=30.0),
    )
    rows.append(_row("chaos-inline", chaos, chaos_wall))
    data["runs"]["chaos_inline"] = _json_entry(chaos, chaos_wall)
    assert chaos.report.fingerprint() == clean_fp, (
        "recovered chaos run diverged from the fault-free fingerprint"
    )
    assert chaos.statuses == ("ok", "retried", "retried", "retried")
    assert chaos.report.n_offered == clean.report.n_offered
    assert chaos.report.n_completed == clean.report.n_completed
    kinds = {f.kind for f in chaos.supervision.failures}
    assert kinds == {"crashed", "timeout", "integrity"}

    if spawn:
        # Full mode: the same palette through real spawn workers.  The
        # crashed worker really exits, the hung worker really sleeps
        # and is killed at the timeout -- the merge must not notice.
        spawned, spawn_wall = _run(
            n_per_shard,
            inline=False,
            proc_faults=ProcFaultPlan(
                seed=SEED, forced=FORCED_PALETTE,
                hang_s=10.0 * SPAWN_TIMEOUT_S,
            ),
            supervision=SupervisorConfig(timeout_s=SPAWN_TIMEOUT_S),
        )
        rows.append(_row("chaos-spawn", spawned, spawn_wall))
        data["runs"]["chaos_spawn"] = _json_entry(spawned, spawn_wall)
        assert spawned.report.fingerprint() == clean_fp, (
            "spawn recovery diverged from the fault-free fingerprint"
        )
        assert spawned.statuses == chaos.statuses

    text = format_table(
        ["scenario", "offered", "completed", "retries", "statuses",
         "wall s", "fingerprint"],
        rows,
        title="Shard supervision: recovery at %d shards, %d "
        "requests/shard (crash + hang + corrupt injected)"
        % (N_SHARDS, n_per_shard),
    )
    return text, data


def reproduce_resume(n_per_shard, resume_dir):
    """Checkpoint/resume: only the failed shard re-executes."""
    plan = ProcFaultPlan(
        seed=SEED, forced=((1, "crash"),), max_faulty_attempts=99
    )
    # Escalation off: the exhausted shard must surface as a
    # SupervisionError, leaving the healthy shards checkpointed.
    config = RouterConfig(resilience=False)
    with pytest.raises(SupervisionError):
        _run(
            n_per_shard, config=config, resume_dir=resume_dir,
            proc_faults=plan,
            supervision=SupervisorConfig(max_attempts=2),
        )
    resumed, wall_s = _run(
        n_per_shard, config=config, resume_dir=resume_dir
    )
    assert resumed.statuses == ("resumed", "ok", "resumed", "resumed")
    counters = resumed.supervision.counters()
    assert counters["resumed"] == N_SHARDS - 1
    assert counters["attempts"] == 1, (
        "resume must re-execute only the failed shard"
    )
    clean, _clean_wall = _run(n_per_shard, config=config)
    assert (
        resumed.report.fingerprint() == clean.report.fingerprint()
    ), "resumed merge diverged from the fault-free fingerprint"
    return resumed, wall_s


@pytest.mark.benchmark(group="resilience")
def test_bench_shard_recovery(benchmark, quick):
    n = QUICK_N_PER_SHARD if quick else N_PER_SHARD
    text, data = run_once(
        benchmark, lambda: reproduce_recovery(n, spawn=not quick)
    )
    emit("shard_resilience", text)
    emit_json("shard_resilience", data)


@pytest.mark.benchmark(group="resilience")
def test_bench_shard_resume(benchmark, quick, tmp_path):
    n = QUICK_N_PER_SHARD if quick else N_PER_SHARD
    resume_dir = str(tmp_path / "checkpoints")
    resumed, wall_s = run_once(
        benchmark, lambda: reproduce_resume(n, resume_dir)
    )
    assert resumed.report.n_offered == N_SHARDS * n
