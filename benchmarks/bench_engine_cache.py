"""Engine-cache microbenchmark: cached vs uncached serving throughput.

The steady-state serving loop executes the *same* compiled plan batch
after batch; the :class:`~repro.core.engine.ExecutionEngine`'s report
cache turns every repeat into a dictionary lookup.  This bench serves
one repeated-plan interactive trace through two identically configured
deployments -- one engine with caching on, one with caching off -- and
records wall-clock throughput (served requests per host second), the
speedup, and the cache hit rates.

The acceptance bar for the engine PR is >= 5x throughput with the
cache enabled on a repeated-plan trace; the observed ratio is asserted
so regressions fail loudly.
"""

import time

import pytest
from common import emit, run_once

from repro.analysis import format_table
from repro.core import ApplicationSpec, ExecutionEngine, PervasiveCNN, TaskClass
from repro.core.runtime import InferenceServer
from repro.gpu import JETSON_TX1
from repro.nn import alexnet
from repro.workloads import interactive_trace

#: Requests in the repeated-plan serving trace (shrunk under --quick).
N_REQUESTS = 400
QUICK_N_REQUESTS = 120

#: The PR's acceptance bar for cached vs uncached serving throughput.
MIN_SPEEDUP = 5.0


def _deployment(cache: bool):
    engine = ExecutionEngine(JETSON_TX1, cache=cache)
    pcnn = PervasiveCNN(JETSON_TX1, engine=engine)
    spec = ApplicationSpec(
        "photo-tagging", TaskClass.INTERACTIVE, data_rate_hz=50.0
    )
    return pcnn.deploy(alexnet(), spec, max_tuning_iterations=4)


def _serve(deployment, trace):
    started = time.perf_counter()
    report = InferenceServer(deployment).serve(trace)
    elapsed = time.perf_counter() - started
    return report, elapsed


def reproduce(n_requests=N_REQUESTS):
    trace = interactive_trace(
        n_requests=n_requests, think_time_s=0.02, seed=42
    )
    cached_dep = _deployment(cache=True)
    uncached_dep = _deployment(cache=False)
    # Equal footing: deployment (tuning) cost is excluded; only the
    # serving loop is timed.
    cached_report, cached_s = _serve(cached_dep, trace)
    uncached_report, uncached_s = _serve(uncached_dep, trace)

    assert cached_report.requests == uncached_report.requests, (
        "caching changed serving semantics"
    )
    cached_tput = cached_report.n_requests / cached_s
    uncached_tput = uncached_report.n_requests / uncached_s
    speedup = cached_tput / uncached_tput
    stats = cached_dep.engine.stats

    rows = [
        ("cache on", "%.0f" % cached_tput, "%.3f" % cached_s,
         "%.0f%%" % (stats.execute_hit_rate * 100)),
        ("cache off", "%.0f" % uncached_tput, "%.3f" % uncached_s, "0%"),
        ("speedup", "%.1fx" % speedup, "", ""),
    ]
    text = format_table(
        ["engine", "req/s (host)", "serve s", "execute hits"],
        rows,
        title="Engine report-cache serving throughput "
        "(AlexNet on TX1, %d requests)" % n_requests,
    )
    return text, speedup


@pytest.mark.benchmark(group="engine")
def test_bench_engine_cache(benchmark, quick):
    n = QUICK_N_REQUESTS if quick else N_REQUESTS
    text, speedup = run_once(benchmark, lambda: reproduce(n))
    emit("engine_cache", text)
    assert speedup >= MIN_SPEEDUP, (
        "cached serving only %.1fx faster (bar: %.0fx)"
        % (speedup, MIN_SPEEDUP)
    )
