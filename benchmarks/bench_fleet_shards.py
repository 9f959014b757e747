"""Fleet-sharding benchmark: weak scaling with bit-identical merges.

Scales the router out to N multiprocessing shards under a *fixed
per-shard* load (weak scaling: the total storm grows with the shard
count) and holds the sharding layer to the repo's determinism bar:

* every shard count's merged fingerprint is bit-identical across two
  same-seed coordinator runs (worker scheduling never leaks into the
  merge) and equal to an inline run's, timed beside it on a fleet
  spec of its own, so it pays for its build as each worker does,
* the 1-shard coordinator run degenerates exactly to the plain
  single-router fingerprint on :mod:`bench_router_overload`'s storm
  configuration (same OVERLOAD multiple, MMPP burst shape,
  interactive requirement, seed),
* a chaos run that kills every platform of one shard loses zero
  requests: the dead shard's rejects are re-homed onto the healthy
  shard and every offered request ends in a terminal record,
* and the merged ledger stays sound at every count -- dense global
  request ids and per-shard-qualified platform rows.

Full mode sweeps 1/2/4/8 shards; ``--quick`` runs 1 and the
``--shards`` option (CI smoke uses ``--shards 2``).  The measured
scaling numbers land in ``results/fleet_shards.json`` (BENCH JSON),
and the dead-shard run's merged fingerprint and failover outcome in
``results/fleet_shards_chaos.json``.

Workers fork from one preloaded forkserver where the platform has one
(spawn elsewhere; the JSON names the method).  The sweep starts the
server before its first row and records that start on its own
(``server_start_s``, 0 under spawn, or when an earlier coordinator in
this process already started it), so every row times only its run;
the server is then shared by every later coordinator here.
"""

import time

import pytest
from bench_router_overload import (
    BURST_FACTOR,
    BURST_FRACTION,
    OVERLOAD,
    REQUIREMENT,
    _fleet,
    _loads,
    _spec,
)
from common import emit, emit_json, run_once

from repro.analysis import format_table
from repro.faults import FaultEvent, FaultTrace
from repro.resilience.supervisor import _worker_context
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import shard_seed
from repro.workloads import bursty_trace

#: Requests per shard (weak scaling holds this fixed as shards grow).
N_PER_SHARD = 2000
QUICK_N_PER_SHARD = 600

#: The full-mode shard sweep; --quick runs (1, --shards).
SHARD_SWEEP = (1, 2, 4, 8)

#: The storm seed (shared with bench_router_overload's trace).
SEED = 42


def _fleet_spec():
    """The picklable twin of :func:`bench_router_overload._fleet`."""
    return FleetSpec(network="alexnet", spec=_spec(), gpus=("k20c", "tx1"))


def _shard_loads(n_shards, rate_hz, n_per_shard):
    """Fixed per-shard load: every shard gets its own tenant serving
    an MMPP storm of ``n_per_shard`` requests at ``rate_hz``, seeded
    per shard from the global seed."""
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
        for shard in range(n_shards)
    ]


def _start_server():
    """Start the workers' forkserver as the first worker run would, by
    forking one empty process from it; returns ``(start method,
    seconds that took)``, 0 under spawn, which starts no server."""
    context = _worker_context()
    method = context.get_start_method()
    if method != "forkserver":
        return method, 0.0
    start = time.perf_counter()
    process = context.Process(target=int)
    process.start()
    process.join()
    return method, time.perf_counter() - start


def reproduce_scaling(counts, n_per_shard):
    """Run the weak-scaling sweep; returns (table text, BENCH data)."""
    fleet_spec = _fleet_spec()
    _, fleet = _fleet()
    rate_hz = OVERLOAD * fleet.capacity_rps()
    method, server_start_s = _start_server()
    rows = []
    data = {
        "mode": "weak-scaling",
        "workers": method,
        "server_start_s": server_start_s,
        "per_shard_requests": n_per_shard,
        "offered_rate_hz": rate_hz,
        "counts": list(counts),
        "runs": {},
    }
    for n_shards in counts:
        shard_loads = _shard_loads(n_shards, rate_hz, n_per_shard)
        coordinator = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=n_shards, seed=SEED
        )
        start = time.perf_counter()
        outcome = coordinator.run(shard_loads=shard_loads)
        wall_s = time.perf_counter() - start
        # Determinism bar: the same-seed re-run merges bit-identically.
        rerun = FleetCoordinator(
            fleet_spec, RouterConfig(), n_shards=n_shards, seed=SEED
        ).run(shard_loads=shard_loads)
        inline = FleetCoordinator(
            _fleet_spec(), RouterConfig(), n_shards=n_shards, seed=SEED,
            inline=True,
        )
        start = time.perf_counter()
        in_process = inline.run(shard_loads=shard_loads)
        inline_wall_s = time.perf_counter() - start
        report = outcome.report
        fingerprint = report.fingerprint()
        assert rerun.report.fingerprint() == fingerprint, (
            "%d-shard same-seed re-run diverged" % n_shards
        )
        assert in_process.report.fingerprint() == fingerprint, (
            "%d-shard inline run diverged from the worker run" % n_shards
        )
        assert report.n_offered == n_shards * n_per_shard
        rids = sorted(
            [r.request.rid for r in report.completed]
            + [r.request.rid for r in report.rejected]
        )
        assert rids == list(range(report.n_offered)), (
            "merged request ids not dense at %d shards" % n_shards
        )
        expected_platforms = 2 * n_shards if n_shards > 1 else 2
        assert len(report.platforms) == expected_platforms
        rows.append(
            (
                n_shards,
                report.n_offered,
                report.n_completed,
                "%.0f%%" % (report.deadline_hit_rate * 100),
                "%.2f" % wall_s,
                "%.0f" % (report.n_offered / wall_s),
                "%.2f" % inline_wall_s,
                "%.0f" % (report.n_offered / inline_wall_s),
                fingerprint[:12],
            )
        )
        data["runs"]["%d" % n_shards] = {
            "fingerprint": fingerprint,
            "offered": report.n_offered,
            "completed": report.n_completed,
            "rejected": report.n_rejected,
            "deadline_hit_rate": report.deadline_hit_rate,
            "wall_s": wall_s,
            "requests_per_wall_second": report.n_offered / wall_s,
            "inline_wall_s": inline_wall_s,
            "inline_requests_per_wall_second": (
                report.n_offered / inline_wall_s
            ),
        }
    text = format_table(
        ["shards", "offered", "completed", "hit-rate", "wall s",
         "req/wall-s", "inline s", "inline req/s", "fingerprint"],
        rows,
        title="Weak scaling: %d requests/shard at %.0fx overload "
        "(%s workers beside inline, merged reports; server started "
        "before the sweep in %.2f s)"
        % (n_per_shard, OVERLOAD, method, server_start_s),
    )
    return text, data


@pytest.mark.benchmark(group="sharding")
def test_bench_fleet_weak_scaling(benchmark, quick, shards):
    counts = tuple(sorted({1, shards})) if quick else SHARD_SWEEP
    n = QUICK_N_PER_SHARD if quick else N_PER_SHARD
    text, data = run_once(
        benchmark, lambda: reproduce_scaling(counts, n)
    )
    emit("fleet_shards", text)
    emit_json("fleet_shards", data)


@pytest.mark.benchmark(group="sharding")
def test_bench_fleet_shard_degenerate(benchmark, quick):
    """The 1-shard coordinator is byte-for-byte the plain router.

    Same storm as :mod:`bench_router_overload` (OVERLOAD multiple,
    burst shape, requirement, seed 42): the merged report of a
    1-shard coordinator run -- worker process included -- must carry
    exactly the fingerprint the unsharded ``RequestRouter`` produces.
    """
    n = QUICK_N_PER_SHARD if quick else N_PER_SHARD

    def reproduce():
        spec, fleet = _fleet()
        rate_hz = OVERLOAD * fleet.capacity_rps()
        loads = _loads(spec, rate_hz, n)
        direct = RequestRouter(fleet, RouterConfig()).run(loads)
        outcome = FleetCoordinator(
            _fleet_spec(), RouterConfig(), n_shards=1, seed=SEED
        ).run(shard_loads=[loads])
        return direct, outcome

    direct, outcome = run_once(benchmark, reproduce)
    assert outcome.report.fingerprint() == direct.fingerprint(), (
        "1-shard merged fingerprint diverged from the plain router"
    )


@pytest.mark.benchmark(group="sharding")
def test_bench_fleet_shard_chaos(benchmark, quick, shards):
    """A dead shard loses zero requests.

    Two shards, full-horizon outage on every platform of shard 1:
    cross-shard failover must re-home the dead shard's requests onto
    the healthy shard, the merged report must contain no
    dead-platform rejects, and every offered request must end in a
    terminal record.
    """
    n = (QUICK_N_PER_SHARD if quick else N_PER_SHARD) // 2

    def reproduce():
        _, fleet = _fleet()
        rate_hz = OVERLOAD * fleet.capacity_rps()
        shard_loads = _shard_loads(2, rate_hz, n)
        horizon = max(
            float(load.trace.arrivals_s[-1])
            for loads in shard_loads
            for load in loads
        )
        events = []
        for episode, gpu in enumerate(("K20c", "TX1"), start=1):
            events.append(FaultEvent(
                time_s=0.001, kind="outage", platform=gpu, episode=episode,
            ))
            events.append(FaultEvent(
                time_s=horizon + 1.0, kind="restore", platform=gpu,
                episode=episode,
            ))
        return FleetCoordinator(
            _fleet_spec(), RouterConfig(), n_shards=2, seed=SEED
        ).run(shard_loads, shard_faults=[None, FaultTrace(events)])

    outcome = run_once(benchmark, reproduce)
    report = outcome.report
    assert outcome.dead_shards == (1,)
    assert outcome.failover_target == 0
    assert outcome.rehomed > 0
    dead_rejects = [
        r for r in report.rejected if r.reason in ("outage", "stranded")
    ]
    assert dead_rejects == [], (
        "%d requests lost to the dead shard" % len(dead_rejects)
    )
    assert report.n_offered == 2 * n
    # Every offered request is terminal exactly once: the merged
    # completed and rejected rids are 2n distinct ids.
    rids = list(report.ledger.columns("completed")["rid"])
    rids.extend(report.ledger.columns("rejected")["rid"])
    assert len(rids) == len(set(rids)) == 2 * n
    emit_json("fleet_shards_chaos", {
        "per_shard_requests": n,
        "fingerprint": report.fingerprint(),
        "dead_shards": list(outcome.dead_shards),
        "failover_target": outcome.failover_target,
        "rehomed": outcome.rehomed,
    })
