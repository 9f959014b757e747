"""The repo's first perf trajectory: throughput, wall-time, RSS.

Measures the serving stack's three flagship scenarios and records the
numbers in ``benchmarks/results/BENCH_perf_trajectory.json`` so the
columnar loop's speedups are *measured every PR*, not asserted once:

* **router_overload** -- :mod:`bench_router_overload`'s MMPP storm
  served by the serving loop and by its oracle, best-of-``ROUNDS``
  wall clock, fingerprints asserted bit-identical.  ``reference``
  records the test suite's event-loop oracle
  (``tests/serving/event_loop.py``), ``vectorized``
  ``RequestRouter.run`` -- the columnar loop and the ledger it builds
  before returning -- and ``speedup`` their ratio.  The speedup is
  recorded, not asserted: the loop is a small share of what a user
  waits for, so CI's speed gate is the end-to-end one
  (``benchmarks/e2e_gate.py``).
* **fleet_shards** -- one 2-shard inline :class:`FleetCoordinator`
  run (inline so the measurement is the routers, not process spawn),
  its merged fingerprint asserted equal to the pinned
  ``FLEET_SHARDS_FINGERPRINTS``.
* **control_whatif** -- :func:`repro.control.run_whatif` on the
  overload storm with the EWMA storm controller.

Every scenario records requests/sec, wall-time normalized to 1M
simulated requests, and peak RSS (``resource.getrusage`` -- process
lifetime maximum, so it is monotone across scenarios within one run).

The JSON keeps one entry per mode (``full`` / ``quick``): a run
updates only its own mode and preserves the other, so the committed
file can hold both trajectories at once.  CI runs ``--quick`` and
uploads the refreshed file as an artifact (see the perf-trajectory
job).
"""

import json
import os
import resource
import time

import pytest
from bench_control_whatif import STORM_CONTROLLER
from bench_fleet_shards import SEED, _fleet_spec, _shard_loads
from bench_router_overload import (
    N_REQUESTS,
    OVERLOAD,
    QUICK_N_REQUESTS,
    _fleet,
    _loads,
    measure_backend_speedup,
)
from common import RESULTS_DIR, emit, run_once

from repro.analysis import format_table
from repro.control import run_whatif
from repro.serving import FleetCoordinator, RouterConfig

SCHEMA_VERSION = 1

TRAJECTORY_PATH = os.path.join(RESULTS_DIR, "BENCH_perf_trajectory.json")

#: Requests per shard in the fleet_shards scenario (2 shards).
N_PER_SHARD = 2000
QUICK_N_PER_SHARD = 600

#: Best-of rounds for the router_overload scenario; the sharded and
#: what-if scenarios run once (they are longer and only informational).
ROUNDS = 5

#: Scenario keys every mode entry must carry, with the loops each
#: records (``reference``: the event-loop oracle; ``vectorized``: the
#: columnar loop; a single-key scenario records ``run()``).  The keys
#: are the committed baseline's schema: a scenario's record holds these
#: loops, a ``fingerprint`` and, for two loops, their ``speedup``.
SCENARIO_BACKENDS = {
    "router_overload": ("reference", "vectorized"),
    "fleet_shards": ("reference",),
    "control_whatif": ("reference",),
}

#: The fleet_shards merged fingerprint per mode, as the event loop
#: produced it before plain shards moved to the columnar loop.
FLEET_SHARDS_FINGERPRINTS = {
    "full": "454962fe25e23b0a6b0cbf8fb83fb971dd840bdd",
    "quick": "5bcc016cdace3c45ffc7c8c904a0b28a8c0025b8",
}

#: Numeric fields every per-backend record must carry.
RECORD_FIELDS = (
    "n_requests",
    "wall_s",
    "requests_per_s",
    "wall_s_per_1m_requests",
    "peak_rss_mb",
)


def _peak_rss_mb():
    """Process-lifetime peak RSS in MiB (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record(n_requests, wall_s):
    return {
        "n_requests": n_requests,
        "wall_s": wall_s,
        "requests_per_s": n_requests / wall_s,
        "wall_s_per_1m_requests": wall_s / n_requests * 1e6,
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure_trajectory(quick):
    """One full trajectory measurement; returns the mode entry."""
    n_router = QUICK_N_REQUESTS if quick else N_REQUESTS
    n_per_shard = QUICK_N_PER_SHARD if quick else N_PER_SHARD
    scenarios = {}

    ref_s, vec_s, fingerprint = measure_backend_speedup(
        n_requests=n_router, rounds=ROUNDS
    )
    scenarios["router_overload"] = {
        "reference": _record(n_router, ref_s),
        "vectorized": _record(n_router, vec_s),
        "speedup": ref_s / vec_s,
        "fingerprint": fingerprint,
    }

    fleet_spec = _fleet_spec()
    _spec, fleet = _fleet()
    rate_hz = OVERLOAD * fleet.capacity_rps()
    shard_loads = _shard_loads(2, rate_hz, n_per_shard)
    coordinator = FleetCoordinator(
        fleet_spec, RouterConfig(), n_shards=2, seed=SEED, inline=True,
    )
    start = time.perf_counter()
    outcome = coordinator.run(shard_loads=shard_loads)
    wall_s = time.perf_counter() - start
    fingerprint = outcome.report.fingerprint()
    expected = FLEET_SHARDS_FINGERPRINTS["quick" if quick else "full"]
    assert fingerprint == expected, (
        "sharded fleet fingerprint %s, pinned %s" % (fingerprint, expected)
    )
    scenarios["fleet_shards"] = {
        "reference": _record(2 * n_per_shard, wall_s),
        "fingerprint": fingerprint,
    }

    spec, fleet = _fleet()
    loads = _loads(spec, rate_hz, n_router)
    start = time.perf_counter()
    run_whatif(fleet, loads, controller=STORM_CONTROLLER)
    wall_s = time.perf_counter() - start
    # One what-if serves each request twice (reactive + predictive).
    scenarios["control_whatif"] = {
        "reference": _record(2 * n_router, wall_s),
    }

    return {"scenarios": scenarios}


def validate_trajectory(data):
    """Schema-check a trajectory document; returns a problem list."""
    problems = []
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            "schema_version %r != %d"
            % (data.get("schema_version"), SCHEMA_VERSION)
        )
    modes = data.get("modes")
    if not isinstance(modes, dict) or not modes:
        return problems + ["modes missing or empty"]
    for mode, entry in sorted(modes.items()):
        if mode not in ("full", "quick"):
            problems.append("unknown mode %r" % mode)
            continue
        scenarios = entry.get("scenarios")
        if not isinstance(scenarios, dict):
            problems.append("%s: scenarios missing" % mode)
            continue
        for scenario, backends in SCENARIO_BACKENDS.items():
            record = scenarios.get(scenario)
            if not isinstance(record, dict):
                problems.append("%s: scenario %s missing" % (mode, scenario))
                continue
            for backend in backends:
                fields = record.get(backend)
                if not isinstance(fields, dict):
                    problems.append(
                        "%s/%s: backend %s missing"
                        % (mode, scenario, backend)
                    )
                    continue
                for field in RECORD_FIELDS:
                    value = fields.get(field)
                    if not isinstance(value, (int, float)) or value <= 0:
                        problems.append(
                            "%s/%s/%s: %s is %r"
                            % (mode, scenario, backend, field, value)
                        )
            allowed = {"fingerprint", *backends}
            if len(backends) > 1:
                allowed.add("speedup")
                speedup = record.get("speedup")
                if not isinstance(speedup, (int, float)) or speedup <= 0:
                    problems.append(
                        "%s/%s: speedup is %r" % (mode, scenario, speedup)
                    )
            for key in sorted(set(record) - allowed):
                problems.append(
                    "%s/%s: undeclared key %r" % (mode, scenario, key)
                )
    return problems


def load_trajectory(path=TRAJECTORY_PATH):
    """The committed trajectory document, or None if absent/invalid."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            data = json.load(handle)
    except ValueError:
        return None
    if data.get("schema_version") != SCHEMA_VERSION:
        return None
    return data


def update_trajectory(mode, entry, path=TRAJECTORY_PATH):
    """Merge one mode's fresh entry into the trajectory file."""
    data = load_trajectory(path) or {
        "schema_version": SCHEMA_VERSION,
        "modes": {},
    }
    data["modes"][mode] = entry
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data


def _render(mode, entry):
    rows = []
    for scenario in SCENARIO_BACKENDS:
        record = entry["scenarios"][scenario]
        for backend in SCENARIO_BACKENDS[scenario]:
            fields = record[backend]
            rows.append(
                (
                    scenario,
                    backend,
                    "%d" % fields["n_requests"],
                    "%.1f" % (fields["wall_s"] * 1e3),
                    "%.0f" % fields["requests_per_s"],
                    "%.2f" % fields["wall_s_per_1m_requests"],
                    "%.0f" % fields["peak_rss_mb"],
                )
            )
        if "speedup" in record:
            rows.append(
                (scenario, "speedup", "", "%.1fx" % record["speedup"],
                 "", "", "")
            )
    return format_table(
        ["scenario", "backend", "requests", "wall ms", "req/s",
         "s per 1M req", "peak RSS MiB"],
        rows,
        title="Perf trajectory (%s mode)" % mode,
    )


@pytest.mark.benchmark(group="perf")
def test_bench_perf_trajectory(benchmark, quick):
    mode = "quick" if quick else "full"
    entry = run_once(benchmark, lambda: measure_trajectory(quick))
    data = update_trajectory(mode, entry)
    emit("perf_trajectory", _render(mode, entry))

    problems = validate_trajectory(data)
    assert problems == [], "invalid trajectory JSON: %s" % problems
