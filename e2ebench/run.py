"""End-to-end serve-fleet benchmark: one workload per process.

    python3 e2ebench/run.py --workload storm --seed 42 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all

Run from the root of a source checkout; the package under test is
imported from ``src/``.  ``--trace 0`` times untraced ops and reports
the end-to-end metrics; ``--trace 1`` alternates untraced ops with ops
traced at the public boundaries of ``repro`` (see ``spans.py``) and
reports the per-layer metrics.  Times are corrected for host speed
(see ``hostspeed.py``); the raw ones are printed beside them.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  ``spec.json`` beside this file holds the
sizes, the pinned fingerprints and what each per-layer metric should
move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from hostspeed import HostClock
from spans import (
    EXPORT_SPAN,
    OBS_EXPORT_SPAN,
    OBS_HOOK_SPAN,
    OP_SPAN,
    Tracer,
    outermost_time,
    self_times,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(HERE, "spec.json")
#: Where a traced run writes its spans (ignored by git).
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads) + ["all"],
        help="one workload, or all of them one process each",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One workload's measurement in this process."""

    def __init__(self, workload, seed: int, spec: dict, check) -> None:
        self.workload = workload
        self.seed = seed
        self.pins = spec["workloads"][workload.name]["fingerprints"]
        #: Per draw seed, the fingerprint every op on that draw must
        #: reproduce: the pinned one, or the first warm-up op's.
        self.expected = {}
        self.check_output = check
        self.clock = HostClock()
        #: The traffic draws of the latest set-up; ops cycle through them.
        self.draws = []
        self.next_draw = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: Per draw seed: (fingerprint, deadline hit rate, mean SoC,
        #: energy J) of its first warm-up op.
        self.outputs = {}

    def set_up(self):
        """Build every draw's inputs and run one untimed warm-up op on
        each; returns ``(raw, corrected)`` seconds."""
        self.draws = []
        gc.collect()

        def step():
            draws = self.workload.setup(self.seed)
            return draws, [self.workload.op(draw, None) for draw in draws]

        raw, corrected, (draws, warms) = self.clock.time(step)
        self.draws = draws
        for draw, warm in zip(draws, warms):
            pinned = self.pins.get(str(draw.seed), warm.fingerprint)
            self.expected.setdefault(draw.seed, pinned)
            report = warm.report
            self.outputs.setdefault(draw.seed, (
                warm.fingerprint,
                report.deadline_hit_rate,
                report.mean_soc,
                report.total_energy_j,
            ))
            problem = self.check(draw, warm)
            if problem is not None:
                # A wrong warm-up counts like a wrong timed op.
                self.attempted += 1
                self.failed += 1
                self.problems.append("warm-up: " + problem)
        return raw, corrected

    def check(self, draw, result):
        return self.check_output(
            self.workload, draw, result, self.expected[draw.seed]
        )

    def timed_op(self, tracer=None, op_id: int = 0):
        """One op on the next draw: ``(raw s, corrected s, result)``;
        the result is None when the op raised or its output is wrong."""
        draw = self.draws[self.next_draw % len(self.draws)]
        self.next_draw += 1
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            raw, corrected, (result, problem) = self.clock.time(
                lambda: self._attempt(draw, tracer, op_id)
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        if problem is None:
            problem = self.check(draw, result)
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            result = None
        return raw, corrected, result

    def _attempt(self, draw, tracer, op_id: int):
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            return self.workload.op(draw, tracer), None
        except Exception:
            return None, traceback.format_exc(limit=8)
        finally:
            if tracer is not None:
                tracer.end_op()


def measure_end_to_end(run: Run, seconds: float, repeats: int) -> dict:
    setups = [run.set_up() for _ in range(repeats)]
    raw_s, op_s = [], []
    terminal = 0
    deadline = perf_counter() + seconds
    timed = 0
    while not timed or perf_counter() < deadline:
        timed += 1
        raw, corrected, result = run.timed_op()
        if result is not None:
            raw_s.append(raw)
            op_s.append(corrected)
            terminal += result.report.n_offered
        del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    references = run.clock.references
    print("ops timed: %d ok of %d" % (len(op_s), run.attempted))
    print("op seconds, raw: %s" % " ".join("%.4f" % s for s in raw_s))
    print("op seconds, corrected: %s" % " ".join("%.4f" % s for s in op_s))
    print(
        "raw: op_s_p50 %.4f s, requests_per_s %.1f, setup_s %.4f s; "
        "reference loop median %.4f s over %d runs"
        % (
            statistics.median(raw_s) if raw_s else 0.0,
            terminal / sum(raw_s) if raw_s else 0.0,
            statistics.median(raw for raw, _ in setups),
            statistics.median(references),
            len(references),
        )
    )
    return {
        "requests_per_s": (terminal / sum(op_s) if op_s else 0.0, "1/s"),
        "op_s_p50": (statistics.median(op_s) if op_s else 0.0, "s"),
        "setup_s": (statistics.median(c for _, c in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def measure_layers(run: Run, seconds: float, spec: dict) -> dict:
    """Alternate untraced and traced ops; per-layer values are means
    over the traced ops, times corrected like the end-to-end ones."""
    run.set_up()
    tracer = Tracer()
    plain, traced, samples = [], [], []
    stage_s, stage_calls = {}, {}
    deadline = perf_counter() + seconds
    op_id = 0
    while len(traced) < 2 or perf_counter() < deadline:
        _, corrected, _ = run.timed_op()
        plain.append(corrected)
        _, corrected, result = run.timed_op(tracer, op_id)
        traced.append(corrected)
        if result is not None:
            factor = run.clock.factor()
            own, count, inclusive = self_times(tracer.rows)
            samples.append(
                layer_values(tracer, result, own, count, inclusive, factor)
            )
            for name in own:
                stage_s[name] = stage_s.get(name, 0.0) + own[name] * factor
                stage_calls[name] = stage_calls.get(name, 0) + count[name]
        op_id += 1
        del result
    write_spans(tracer, run)
    print_stages(stage_s, stage_calls, len(samples))
    overhead = statistics.median(traced) / statistics.median(plain)
    units = spec["per_layer"]
    metrics = {}
    absent = []
    for name in units:
        values = [sample.get(name) for sample in samples]
        values = [value for value in values if value is not None]
        if name == "trace.overhead_ratio":
            values = [overhead]
        if not values:
            absent.append(name)
            metrics[name] = (0.0, units[name]["unit"])
        else:
            metrics[name] = (sum(values) / len(values), units[name]["unit"])
    print("traced ops: %d, untraced ops: %d" % (len(traced), len(plain)))
    print("boundaries:")
    for (module, path), status in sorted(tracer.status.items()):
        print("  %-9s %s.%s" % (status, module, path))
    if absent:
        print("absent (reported as 0): %s" % ", ".join(absent))
    return metrics


def print_stages(stage_s: dict, stage_calls: dict, ops: int) -> None:
    """Every span's self time per traced op; the rows sum to the op."""
    if not ops:
        return
    total = sum(stage_s.values())
    print("stages (corrected self time per traced op; shares sum to 1):")
    print("  %-22s %10s %12s %7s" % ("span", "calls/op", "self s/op", "share"))
    for name in sorted(stage_s, key=stage_s.get, reverse=True):
        print("  %-22s %10.1f %12.6f %7.4f" % (
            name, stage_calls[name] / ops, stage_s[name] / ops,
            stage_s[name] / total,
        ))


def layer_values(tracer, result, own, count, inclusive, factor) -> dict:
    """One traced op's per-layer values from its spans' self times,
    call counts and inclusive times; times are scaled by the op's
    host-speed ``factor``.  None marks a layer the op never entered."""
    rows = tracer.rows
    report = result.report

    def self_s(name):
        return own[name] * factor if count.get(name) else None

    compile_calls, compile_hits = tracer.engine_deltas()
    fingerprints = count.get("report.fingerprint", 0)
    values = {
        "core.fleet_build_s": (
            outermost_time(rows, ("core.fleet_build", "core.deploy_all"))
            * factor
            if count.get("core.fleet_build")
            else None
        ),
        "core.fleet_builds": count.get("core.fleet_build"),
        "core.compile_s": self_s("core.compile"),
        "core.execute_s": self_s("core.execute"),
        "core.compile_hit_ratio": (
            compile_hits / compile_calls if compile_calls else None
        ),
        "serving.route_s": self_s("serving.route"),
        "serving.route_us_per_request": (
            self_s("serving.route") / report.n_offered * 1e6
            if count.get("serving.route") and report.n_offered
            else None
        ),
        "serving.events": len(report.events),
        "report.fingerprint_s": self_s("report.fingerprint"),
        "report.fingerprint_calls": fingerprints or None,
        "report.fingerprint_repeat_share": (
            tracer.fingerprint_repeats / fingerprints if fingerprints else None
        ),
        "report.export_s": self_s(EXPORT_SPAN),
        "shard.merge_s": self_s("shard.merge"),
        "shard.qualify_s": self_s("shard.qualify"),
        "shard.coordinator_self_s": self_s("shard.coordinator"),
        "shard.worker_self_s": self_s("shard.worker"),
        "resilience.supervise_self_s": self_s("resilience.supervise"),
        "resilience.validate_s": self_s("resilience.validate"),
        "control.tick_s": self_s("control.tick"),
        "control.ticks": count.get("control.tick"),
        "control.observe_s": self_s("control.observe"),
        "obs.hook_s": self_s(OBS_HOOK_SPAN),
        "obs.hook_calls": count.get(OBS_HOOK_SPAN),
        "obs.export_s": self_s(OBS_EXPORT_SPAN),
        "trace.unattributed_share": own[OP_SPAN] / inclusive[OP_SPAN],
    }
    control = report.control
    if control and control.get("prewarm", {}).get("requested"):
        prewarm = control["prewarm"]
        values["control.prewarm_hit_ratio"] = (
            prewarm["hits"] / prewarm["requested"]
        )
    if result.exports is not None:
        values["obs.export_bytes"] = sum(len(text) for text in result.exports)
    if report.resilience is not None:
        values["faults.injected"] = report.resilience.faults_injected
        values["serving.retries"] = report.resilience.retries
        values["serving.failovers"] = report.resilience.failovers
    return values


def write_spans(tracer, run: Run) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, "spans-%s-%d.json" % (run.workload.name, run.seed)
    )
    with open(path, "w") as handle:
        json.dump(tracer.kept_spans(), handle)
    print("spans written to %s" % os.path.relpath(path, ROOT))


def run_all(args, workloads) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for name in sorted(workloads):
        completed = subprocess.run([
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, completed.returncode)
    return worst


def use_checkout_package() -> bool:
    """Put the checkout's ``src/`` first on the path; False when the
    checkout has no package to measure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return False
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return True


def main(argv=None) -> int:
    if not use_checkout_package():
        print(
            "e2ebench: no src/repro under %s; run from a source checkout"
            % ROOT,
            file=sys.stderr,
        )
        return 2
    from storms import WORKLOADS, check

    spec = load_spec()
    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    size = spec["workloads"][args.workload]["requests"]
    run = Run(WORKLOADS[args.workload](size), args.seed, spec, check)
    if args.trace:
        metrics = measure_layers(run, args.seconds, spec)
    else:
        metrics = measure_end_to_end(run, args.seconds, spec["setup_repeats"])
    for draw_seed, outputs in sorted(run.outputs.items()):
        fingerprint, hit_rate, soc, energy_j = outputs
        print(
            "%s draw seed %d: fingerprint %s (%s), deadline hit rate "
            "%.4f, mean SoC %.4f, energy %.3f J"
            % (
                args.workload,
                draw_seed,
                fingerprint,
                "pinned" if str(draw_seed) in run.pins else "not pinned",
                hit_rate,
                soc,
                energy_j,
            )
        )
    for problem in run.problems[:3]:
        print("failed op: %s" % problem.strip().splitlines()[-1])
    print("ops attempted: %d, failed: %d" % (run.attempted, run.failed))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
