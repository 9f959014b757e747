"""Command-line interface: ``python -m repro <command>``.

Sub-commands:

* ``platforms`` -- list the modeled GPU platforms (Table II).
* ``networks`` -- list the available network descriptors.
* ``describe --network N`` -- per-layer shape/FLOP summary.
* ``compile --network N --gpu G [--task T] [--rate R] [--save F]`` --
  run offline compilation and print the per-layer scheduling table;
  optionally save the artifact JSON.
* ``compare --network N --gpu G --task T [--rate R] [--fps F]`` --
  run the six-scheduler evaluation for one scenario (Figs. 13-15 row).
* ``profile --network N --gpu G [--batch B]`` -- per-layer
  characterization (GEMM shape, Util, rEC, cpE, time share).
* ``roofline --network N --gpu G [--batch B]`` -- per-layer
  compute/memory-bound classification.
* ``evaluate [--gpus G1,G2]`` -- regenerate the full six-scheduler x
  three-task matrix behind the paper's Figs. 13-15.
* ``tune --network N --gpu G [--slack S]`` -- run entropy-guided
  accuracy tuning with the analytic model and print the tuning path.
* ``serve-fleet [--gpus G1,G2] [--load L] [--requests N]
  [--shards N] [--shard-inline] [--no-degradation] [--fifo]
  [--chaos] [--chaos-seed S] [--no-resilience] [--json] [--trace F]
  [--chrome-trace F] [--metrics-out F]`` -- route a bursty
  multi-tenant storm across the fleet and print the router report;
  ``--shards N`` scales the run out to N router shards in
  ``multiprocessing`` spawn workers (each with its own fleet and
  per-shard seeded tenants) and prints the deterministically merged
  report; ``--chaos`` injects a seeded fault trace (outages, SM
  failures, throttles, transients) and reports the recovery metrics;
  ``--proc-chaos [--proc-chaos-seed S]`` injects *process* faults
  (worker crashes, hangs, corrupted results) the shard supervisor
  must recover from bit-identically, with ``--shard-timeout-s S`` /
  ``--shard-retries K`` / ``--shard-witness`` / ``--processes P``
  tuning the supervision policy and ``--resume-dir D`` checkpointing
  shard results so a rerun re-executes only failed shards;
  the trace/metrics flags enable instrumentation and write
  deterministic span/metric exports.
* ``trace SCENARIO [--gpus G1,G2] [--requests N] [--chaos] ...`` --
  run one paper scenario through an instrumented router and export
  its spans/metrics (span JSON, Chrome ``trace_event`` for Perfetto,
  metrics JSON, Prometheus text).
* ``lint [PATHS ...] [--format json|sarif] [--rule REPnnn]
  [--changed [--base REF]] [--show-stale] [--list-rules]`` -- run the
  AST invariant analyzer (determinism incl. interprocedural taint,
  float equality, fingerprint ordering, unit algebra, import cycles,
  mutable defaults, spawn-boundary pickle contract, engine and
  control-tick purity)
  over the package or the given paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis import (
    format_table,
    machine_balance,
    profile_network,
    roofline_point,
)
from repro.control import ControllerConfig
from repro.core import ApplicationSpec, TaskClass
from repro.core.engine import ExecutionEngine
from repro.core.fleet import FleetManager
from repro.core.offline.artifact import save_plan
from repro.core.runtime import AccuracyTuner, AnalyticEntropyModel
from repro.core.user_input import infer_requirement
from repro.faults import FaultTraceConfig, generate_fault_trace
from repro.gpu import get_architecture, list_architectures
from repro.lint.cli import add_lint_parser, run_lint_command
from repro.nn.models import EXTRA_NETWORKS, PAPER_NETWORKS, PCNN_NET_SIZES, get_network
from repro.obs import (
    Instrumentation,
    chrome_trace_json,
    prometheus_text,
    trace_to_json,
)
from repro.resilience import ProcFaultPlan, SupervisorConfig
from repro.schedulers import compare_schedulers, make_context
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.shard import shard_label, shard_seed
from repro.workloads import (
    age_detection,
    bursty_trace,
    image_tagging,
    paper_scenarios,
    pareto_trace,
    video_surveillance,
)

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int):
    """argparse type for an int flag of at least ``minimum`` (argparse
    names the flag in its error and exits 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % (text,)
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (minimum, value)
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_batch_size = _int_at_least(0)  # ``compile --batch 0`` selects the batch


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P-CNN: user satisfaction-aware CNN inference "
        "(HPCA 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list modeled GPU platforms")
    sub.add_parser("networks", help="list available networks")

    describe = sub.add_parser("describe", help="per-layer network summary")
    describe.add_argument("--network", required=True)

    compile_cmd = sub.add_parser("compile", help="offline compilation")
    compile_cmd.add_argument("--network", required=True)
    compile_cmd.add_argument("--gpu", required=True)
    compile_cmd.add_argument(
        "--task",
        choices=[TaskClass.INTERACTIVE, TaskClass.REAL_TIME, TaskClass.BACKGROUND],
        default=TaskClass.INTERACTIVE,
    )
    compile_cmd.add_argument("--rate", type=float, default=50.0,
                             help="data generation rate (Hz)")
    compile_cmd.add_argument("--fps", type=float, default=10.0,
                             help="frame rate for real-time tasks")
    compile_cmd.add_argument("--batch", type=_batch_size, default=0,
                             help="force a batch size (skip selection); "
                             "0 selects it")
    compile_cmd.add_argument("--save", default=None,
                             help="write the artifact JSON here")

    compare = sub.add_parser("compare", help="six-scheduler comparison")
    compare.add_argument("--network", required=True)
    compare.add_argument("--gpu", required=True)
    compare.add_argument(
        "--task",
        choices=[TaskClass.INTERACTIVE, TaskClass.REAL_TIME, TaskClass.BACKGROUND],
        default=TaskClass.INTERACTIVE,
    )
    compare.add_argument("--rate", type=float, default=50.0)
    compare.add_argument("--fps", type=float, default=10.0)

    profile = sub.add_parser("profile", help="per-layer characterization")
    profile.add_argument("--network", required=True)
    profile.add_argument("--gpu", required=True)
    profile.add_argument("--batch", type=int, default=1)

    roofline = sub.add_parser("roofline", help="per-layer roofline bounds")
    roofline.add_argument("--network", required=True)
    roofline.add_argument("--gpu", required=True)
    roofline.add_argument("--batch", type=int, default=1)

    evaluate = sub.add_parser(
        "evaluate", help="full Figs. 13-15 scheduler matrix"
    )
    evaluate.add_argument(
        "--gpus", default="k20c,tx1",
        help="comma-separated platform list (default: the paper's pair)",
    )

    tune = sub.add_parser("tune", help="entropy-guided accuracy tuning")
    tune.add_argument("--network", required=True)
    tune.add_argument("--gpu", required=True)
    tune.add_argument("--batch", type=int, default=1)
    tune.add_argument("--slack", type=float, default=0.3,
                      help="allowed relative entropy increase")
    tune.add_argument("--iterations", type=int, default=32)

    serve = sub.add_parser(
        "serve-fleet", help="route multi-tenant traffic across the fleet"
    )
    serve.add_argument("--network", default="alexnet")
    serve.add_argument(
        "--gpus", default="k20c,tx1",
        help="comma-separated platform list (default: the paper's pair)",
    )
    serve.add_argument(
        "--load", type=float, default=2.0,
        help="offered load as a multiple of rung-0 fleet capacity",
    )
    serve.add_argument("--requests", type=_positive_int, default=2000,
                       help="requests per tenant in the storm")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--shards", type=_positive_int, default=1,
        help="router shards; one shard serves exactly the unsharded "
        "storm; above 1 each shard runs its own fleet and "
        "per-shard-seeded tenant pair in a spawn worker and the "
        "per-shard reports are merged deterministically",
    )
    serve.add_argument(
        "--shard-inline", action="store_true",
        help="run shards sequentially in-process instead of "
        "multiprocessing spawn workers (same bits, easier debugging)",
    )
    serve.add_argument(
        "--processes", type=_positive_int, default=None,
        help="cap on concurrently live shard workers "
        "(default: min(shards, cpu count))",
    )
    serve.add_argument(
        "--proc-chaos", action="store_true",
        help="inject seeded *process* faults into the shard workers "
        "(self-kill, corrupted results); the supervisor recovers via "
        "kill-and-retry and the merged fingerprint stays bit-identical "
        "to the fault-free run",
    )
    serve.add_argument(
        "--proc-chaos-seed", type=int, default=11,
        help="seed of the process-fault plan (with --proc-chaos)",
    )
    serve.add_argument(
        "--shard-timeout-s", type=float, default=None,
        help="wall-clock budget per shard attempt; hung workers are "
        "killed and retried (default: no timeout)",
    )
    serve.add_argument(
        "--shard-retries", type=_positive_int, default=3,
        help="attempts per shard before its load is escalated onto a "
        "healthy shard",
    )
    serve.add_argument(
        "--shard-witness", action="store_true",
        help="re-execute every shard and require fingerprint "
        "agreement before accepting its result (duplicate-execution "
        "quorum; catches forged payloads)",
    )
    serve.add_argument(
        "--resume-dir", default=None, metavar="DIR",
        help="checkpoint completed shard results here; a re-run with "
        "the same inputs executes only the shards that failed",
    )
    serve.add_argument(
        "--controller", choices=["off", "ewma", "holt-winters"],
        default="off",
        help="predictive control plane: per-tenant arrival forecasting "
        "with plan pre-warm, proactive degradation and DVFS "
        "(default: off, purely reactive serving)",
    )
    serve.add_argument(
        "--no-degradation", action="store_true",
        help="pin every platform at rung 0 (no overload ladder)",
    )
    serve.add_argument(
        "--fifo", action="store_true",
        help="FIFO dispatch baseline instead of SoC-scored placement",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="inject a seeded fault trace (outages, SM failures, "
        "thermal throttles, bandwidth loss, transients)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=7,
        help="seed of the generated fault trace (with --chaos)",
    )
    serve.add_argument(
        "--no-resilience", action="store_true",
        help="disable health-aware dispatch, retries, failover and "
        "circuit breakers (the health-blind baseline)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of tables",
    )
    _add_obs_export_args(serve)

    trace_cmd = sub.add_parser(
        "trace",
        help="instrumented routing run of one paper scenario with "
        "span/metric export",
    )
    trace_cmd.add_argument(
        "scenario",
        choices=sorted(_SCENARIOS),
        help="paper scenario to trace",
    )
    trace_cmd.add_argument(
        "--gpus", default="k20c,tx1",
        help="comma-separated platform list (default: the paper's pair)",
    )
    trace_cmd.add_argument(
        "--load", type=float, default=2.0,
        help="offered load as a multiple of rung-0 fleet capacity",
    )
    trace_cmd.add_argument("--requests", type=_positive_int, default=500,
                           help="requests in the storm")
    trace_cmd.add_argument("--seed", type=int, default=42)
    trace_cmd.add_argument(
        "--chaos", action="store_true",
        help="inject a seeded fault trace during the traced run",
    )
    trace_cmd.add_argument(
        "--chaos-seed", type=int, default=7,
        help="seed of the generated fault trace (with --chaos)",
    )
    _add_obs_export_args(trace_cmd)
    trace_cmd.add_argument(
        "--prometheus-out", default=None, metavar="FILE",
        help="write the metrics in Prometheus text exposition format",
    )

    add_lint_parser(sub)
    return parser


def _add_obs_export_args(parser) -> None:
    """The instrumentation-export flags shared by serve-fleet/trace."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="enable tracing and write the span trace as canonical JSON",
    )
    parser.add_argument(
        "--chrome-trace", default=None, metavar="FILE",
        help="enable tracing and write a Chrome trace_event file "
        "(opens in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="enable metrics and write the registry snapshot as "
        "canonical JSON",
    )


def _spec_for(args) -> ApplicationSpec:
    kwargs = dict(
        name="cli-task",
        task_class=args.task,
        data_rate_hz=args.rate,
    )
    if args.task == TaskClass.REAL_TIME:
        kwargs["frame_rate_hz"] = args.fps
        kwargs["data_rate_hz"] = args.fps
        kwargs["accuracy_sensitive"] = True
    return ApplicationSpec(**kwargs)


def _cmd_platforms(_args) -> int:
    rows = [
        (a.name, a.platform, a.generation, a.total_cuda_cores, a.n_sms,
         "%.0f" % a.core_clock_mhz, "%.1f" % (a.memory_bytes / 1024**3))
        for a in list_architectures()
    ]
    print(format_table(
        ["GPU", "class", "gen", "cores", "SMs", "MHz", "GiB"], rows,
        title="Modeled platforms (paper Table II)",
    ))
    return 0


def _cmd_networks(_args) -> int:
    rows = []
    names = (
        sorted(PAPER_NETWORKS)
        + sorted(EXTRA_NETWORKS)
        + ["pcnn-%s" % s for s in PCNN_NET_SIZES]
    )
    for key in names:
        net = get_network(key)
        rows.append(
            (key, len(net.conv_layers),
             "%.2f" % (net.total_flops() / 1e9),
             "%.1f" % (net.total_weights() / 1e6))
        )
    print(format_table(
        ["name", "convs", "GFLOPs/img", "Mparams"], rows,
        title="Available networks",
    ))
    return 0


def _cmd_describe(args) -> int:
    print(get_network(args.network).describe())
    return 0


def _cmd_compile(args) -> int:
    network = get_network(args.network)
    arch = get_architecture(args.gpu)
    engine = ExecutionEngine(arch)
    if args.batch > 0:
        plan = engine.compile_with_batch(network, args.batch)
    else:
        spec = _spec_for(args)
        requirement = infer_requirement(spec)
        plan = engine.compile(
            network, requirement.time, data_rate_hz=spec.data_rate_hz
        )
    rows = [
        (s.name, "%dx%d" % s.tuned.tile, s.tuned.kernel.regs_per_thread,
         s.grid_size, s.opt_tlp, s.opt_sm, "%.3f" % (s.time_s * 1e3))
        for s in plan.schedules
    ]
    print(format_table(
        ["layer", "tile", "regs", "grid", "optTLP", "optSM", "ms"], rows,
        title="%s on %s (batch %d, %.2f ms predicted)"
        % (network.name, arch.name, plan.batch, plan.total_time_s * 1e3),
    ))
    if args.save:
        save_plan(plan, args.save)
        print("\nartifact written to %s" % args.save)
    return 0


def _cmd_compare(args) -> int:
    network = get_network(args.network)
    arch = get_architecture(args.gpu)
    ctx = make_context(arch, network, _spec_for(args))
    outcomes = compare_schedulers(ctx)
    rows = [
        (name, o.batch, "%.2f" % (o.latency_s * 1e3),
         "%.4f" % o.energy_per_item_j, "%.3f" % o.entropy,
         "%.4f" % o.soc.value, "" if o.meets_satisfaction else "x")
        for name, o in outcomes.items()
    ]
    print(format_table(
        ["scheduler", "batch", "latency ms", "J/item", "entropy", "SoC",
         "fail"],
        rows,
        title="%s / %s / %s" % (network.name, arch.name, args.task),
    ))
    return 0


def _cmd_profile(args) -> int:
    network = get_network(args.network)
    arch = get_architecture(args.gpu)
    report = profile_network(arch, network, batch=args.batch)
    print(report.render())
    hottest = report.hottest(3)
    print(
        "\nhottest layers: %s"
        % ", ".join("%s (%.0f%%)" % (layer.name, layer.time_share * 100) for layer in hottest)
    )
    return 0


def _cmd_roofline(args) -> int:
    network = get_network(args.network)
    arch = get_architecture(args.gpu)
    plan = ExecutionEngine(arch).compile_with_batch(network, args.batch)
    rows = []
    for schedule in plan.schedules:
        point = roofline_point(arch, schedule.tuned.kernel, schedule.shape)
        rows.append(
            (
                schedule.name,
                "%.1f" % point.arithmetic_intensity,
                "compute" if point.is_compute_bound else "memory",
                "%.0f%%" % (point.attainable_fraction * 100),
            )
        )
    print(format_table(
        ["layer", "FLOP/byte", "bound", "roof ceiling"],
        rows,
        title="%s on %s (ridge %.1f FLOP/byte, batch %d)"
        % (network.name, arch.name, machine_balance(arch), plan.batch),
    ))
    return 0


def _cmd_evaluate(args) -> int:
    rows = []
    for gpu_name in args.gpus.split(","):
        arch = get_architecture(gpu_name.strip())
        for scenario in paper_scenarios():
            ctx = make_context(arch, scenario.network, scenario.spec)
            outcomes = compare_schedulers(ctx)
            for name, outcome in outcomes.items():
                rows.append(
                    (
                        arch.name,
                        scenario.name,
                        name,
                        outcome.batch,
                        "%.2f" % (outcome.latency_s * 1e3),
                        "%.4f" % outcome.energy_per_item_j,
                        "%.4f" % outcome.soc.value,
                        "" if outcome.meets_satisfaction else "x",
                    )
                )
    print(format_table(
        ["GPU", "task", "scheduler", "batch", "latency ms", "J/item",
         "SoC", "fail"],
        rows,
        title="Scheduler evaluation matrix (Figs. 13-15)",
    ))
    return 0


def _cmd_tune(args) -> int:
    network = get_network(args.network)
    arch = get_architecture(args.gpu)
    engine = ExecutionEngine(arch)
    evaluator = AnalyticEntropyModel(network)
    tuner = AccuracyTuner(engine, network, evaluator)
    table = tuner.tune(
        batch=args.batch,
        entropy_threshold=1.0 + args.slack,
        max_iterations=args.iterations,
    )
    rows = [
        (e.iteration, "%.2f" % (e.time_s * 1e3), "%.2fx" % e.speedup,
         "%.3f" % e.entropy, e.plan.describe())
        for e in table.entries
    ]
    print(format_table(
        ["iter", "ms", "speedup", "entropy", "plan"], rows,
        title="Tuning path: %s on %s (threshold %.2f)"
        % (network.name, arch.name, 1.0 + args.slack),
    ))
    return 0


#: Scenario presets of the ``trace`` sub-command (the paper's Fig.
#: 13-15 triple, keyed by CLI name).
_SCENARIOS = {
    "age-detection": age_detection,
    "video-surveillance": video_surveillance,
    "image-tagging": image_tagging,
}


def _wants_obs(args) -> bool:
    """Whether any export flag asks for an instrumented run."""
    return (
        args.trace is not None
        or args.chrome_trace is not None
        or args.metrics_out is not None
    )


def _write_obs_exports(buffer, metrics: dict, args) -> None:
    """Write the span and metric exports the flags requested
    (deterministic bytes): traces from ``buffer``, and the metrics
    snapshot ``metrics`` in ``metrics_to_json``'s canonical form."""
    # Notes go to stderr so --json stdout stays machine-parseable.
    if args.trace is not None:
        with open(args.trace, "w") as handle:
            handle.write(trace_to_json(buffer))
        print("span trace written to %s" % args.trace, file=sys.stderr)
    if args.chrome_trace is not None:
        with open(args.chrome_trace, "w") as handle:
            handle.write(chrome_trace_json(buffer))
        print(
            "chrome trace written to %s" % args.chrome_trace,
            file=sys.stderr,
        )
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as handle:
            handle.write(
                json.dumps(metrics, sort_keys=True, separators=(",", ":"))
            )
        print("metrics written to %s" % args.metrics_out, file=sys.stderr)


def _chaos_config(horizon_s: float) -> FaultTraceConfig:
    """The serve-fleet chaos recipe, scaled to one run's horizon."""
    return FaultTraceConfig(
        outages=1,
        outage_duration_s=0.25 * horizon_s,
        sm_failures=1,
        sm_failure_duration_s=0.25 * horizon_s,
        throttles=1,
        throttle_duration_s=0.25 * horizon_s,
        bandwidth_degradations=1,
        bandwidth_duration_s=0.25 * horizon_s,
        transients=3,
    )


def _storm(args, spec, platforms, offered):
    """The serve-fleet storm: one tenant pair per shard, plus chaos.

    Two tenants share each fleet: a deadline-bound interactive stream
    carrying 80% of the offered rate, and a deadline-free background
    dump (heavy-tailed arrivals) carrying the remaining 20%.  One
    shard serves exactly the unsharded storm: plain tenant names,
    plain seeds.  With more shards the run scales weakly: shard ``k``
    gets its own pair at the full rate
    (``interactive-s<k>``/``background-s<k>``, seeds from
    :func:`shard_seed`).  With ``--chaos`` each shard also gets its own
    schedule on its bare platform names, spanning the latest arrival
    of any shard.  Returns ``(shard_loads, shard_faults)``, one entry
    per shard; ``shard_faults`` entries are ``None`` without chaos.
    """
    sharded = args.shards > 1

    def seed(base, shard):
        return shard_seed(base, shard) if sharded else base

    def named(tenant, shard):
        if not sharded:
            return tenant
        return replace(
            tenant, name="%s-%s" % (tenant.name, shard_label(shard))
        )

    interactive = Tenant.from_spec(spec, priority=1)
    background = Tenant.from_spec(
        ApplicationSpec("background", TaskClass.BACKGROUND), priority=0
    )
    shard_loads = [
        [
            TenantLoad(
                named(interactive, shard),
                bursty_trace(
                    n_requests=args.requests,
                    rate_hz=0.8 * offered,
                    seed=seed(args.seed, shard),
                ),
            ),
            TenantLoad(
                named(background, shard),
                pareto_trace(
                    n_requests=max(1, args.requests // 4),
                    rate_hz=0.2 * offered,
                    seed=seed(args.seed + 1, shard),
                ),
            ),
        ]
        for shard in range(args.shards)
    ]
    if not args.chaos:
        return shard_loads, [None] * args.shards
    horizon = max(
        float(load.trace.arrivals_s[-1])
        for loads in shard_loads
        for load in loads
        if load.trace.n_requests
    )
    return shard_loads, [
        generate_fault_trace(
            platforms=platforms,
            horizon_s=horizon,
            config=_chaos_config(horizon),
            seed=seed(args.chaos_seed, shard),
        )
        for shard in range(args.shards)
    ]


def _serve_fleet_sharded(args, fleet, shard_loads, shard_faults, config,
                         controller=None):
    """The coordinator path of ``serve-fleet`` (``--shards`` above 1,
    or any supervision flag): supervised run of the
    :class:`FleetSpec` ``fleet`` + exports."""
    instrument = _wants_obs(args)
    proc_faults = None
    if args.proc_chaos:
        # Crash + corruption only: the hang kind needs a timeout to be
        # recoverable, so it joins the draw only when the user set one
        # (with a sleep guaranteed to overrun it).  One faulty attempt
        # per shard at most, so the retry always lands clean and the
        # merged fingerprint matches the fault-free run bit for bit.
        hang_rate = 0.0 if args.shard_timeout_s is None else 0.2
        proc_faults = ProcFaultPlan(
            seed=args.proc_chaos_seed,
            crash_rate=0.3,
            corrupt_rate=0.2,
            hang_rate=hang_rate,
            hang_s=(
                3600.0
                if args.shard_timeout_s is None
                else 10.0 * args.shard_timeout_s
            ),
        )
    supervision = SupervisorConfig(
        timeout_s=args.shard_timeout_s,
        max_attempts=args.shard_retries,
        witness=args.shard_witness,
    )
    coordinator = FleetCoordinator(
        fleet,
        config,
        n_shards=args.shards,
        seed=args.seed,
        inline=args.shard_inline,
        controller=controller,
        processes=args.processes,
        supervision=supervision,
        proc_faults=proc_faults,
        resume_dir=args.resume_dir,
    )
    outcome = coordinator.run(
        shard_loads, shard_faults=shard_faults, instrument=instrument
    )
    if instrument:
        # The merged report's obs section carries the associatively
        # merged per-shard metric series; traces come from the
        # stitched global buffer.
        _write_obs_exports(
            outcome.buffer, outcome.report.obs["metrics"], args
        )
    return outcome


def _shard_status(outcome, shard_id: int) -> str:
    """One shard's table cell: supervision status plus any fleet role
    (chaos-dead, failover/escalation target), ``+``-joined."""
    parts = [outcome.statuses[shard_id]] if outcome.statuses else ["ok"]
    if shard_id in outcome.dead_shards and "dead" not in parts:
        parts.append("dead")
    if shard_id in (outcome.failover_target, outcome.escalation_target):
        parts.append("target")
    return "+".join(parts)


def _cmd_serve_fleet(args) -> int:
    spec = ApplicationSpec(
        "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
        entropy_slack=0.30,
    )
    # One build serves the whole command: the storm is sized and the
    # plain path routes on a copy, and the coordinator's inline shards
    # route on copies of the same build.
    fleet_spec = FleetSpec(
        network=args.network,
        spec=spec,
        gpus=tuple(name.strip() for name in args.gpus.split(",")),
    )
    fleet = fleet_spec.deployed()
    offered = args.load * fleet.capacity_rps()
    config = RouterConfig(
        degradation=not args.no_degradation,
        policy="fifo" if args.fifo else "soc",
        resilience=not args.no_resilience,
    )
    controller = None
    if args.controller != "off":
        controller = ControllerConfig(kind=args.controller)

    shard_loads, shard_faults = _storm(
        args, spec, sorted(fleet.deploy_all()), offered
    )
    outcome = None
    supervised = (
        args.proc_chaos
        or args.resume_dir is not None
        or args.shard_timeout_s is not None
        or args.shard_witness
    )
    if args.shards > 1 or supervised:
        outcome = _serve_fleet_sharded(
            args, fleet_spec, shard_loads, shard_faults, config, controller
        )
        report = outcome.report
    else:
        obs = Instrumentation() if _wants_obs(args) else None
        report = RequestRouter(fleet, config).run(
            shard_loads[0], shard_faults[0], obs=obs,
            controller=controller.build() if controller is not None else None,
        )
        if obs is not None:
            _write_obs_exports(obs.buffer, obs.metrics.snapshot(), args)

    if args.json:
        payload = report.to_dict(include_events=False)
        payload["fingerprint"] = report.fingerprint()
        if outcome is not None:
            payload["sharding"] = {
                "n_shards": args.shards,
                "seeds": list(outcome.seeds),
                "rehomed": outcome.rehomed,
                "dead_shards": list(outcome.dead_shards),
                "failover_target": outcome.failover_target,
                "statuses": list(outcome.statuses),
                "escalated": list(outcome.escalated),
                "escalation_target": outcome.escalation_target,
                "failures": [
                    failure.to_dict()
                    for failure in outcome.supervision.failures
                ],
                "supervision": outcome.supervision.to_dict(),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(format_table(
        ["offered", "completed", "rejected", "hit-rate", "mean SoC",
         "p95 latency ms", "energy J"],
        [(
            report.n_offered,
            report.n_completed,
            report.n_rejected,
            "%.0f%%" % (report.deadline_hit_rate * 100),
            "%.3f" % report.mean_soc,
            "%.1f" % (report.percentile_latency_s(95.0) * 1e3),
            "%.2f" % report.total_energy_j,
        )],
        title="Fleet serving: %s at %.1fx capacity (%.0f req/s offered, "
        "policy %s%s)"
        % (fleet.network.name, args.load, offered, config.policy,
           ", no degradation" if args.no_degradation else ""),
    ))
    print()
    print(format_table(
        ["tenant", "prio", "offered", "rejected", "hit-rate", "mean SoC",
         "mean latency ms"],
        [(
            stats.tenant,
            stats.priority,
            stats.offered,
            stats.rejected,
            "%.0f%%" % (stats.deadline_hit_rate * 100),
            "%.3f" % stats.mean_soc,
            "%.1f" % (stats.mean_latency_s * 1e3),
        ) for stats in report.per_tenant()],
        title="Per tenant",
    ))
    print()
    print(format_table(
        ["platform", "batches", "requests", "util", "mean level",
         "peak level", "energy J"],
        [(
            stats.platform,
            stats.batches,
            stats.requests,
            "%.0f%%" % (stats.utilization * 100),
            "%.2f" % stats.mean_level,
            stats.peak_level,
            "%.2f" % stats.energy_j,
        ) for stats in report.platforms],
        title="Per platform",
    ))
    if report.resilience is not None:
        res = report.resilience
        print()
        print(format_table(
            ["faults", "outages", "MTTR s", "batch fails", "retries",
             "failovers", "rescued", "breaker open/close"],
            [(
                res.faults_injected,
                res.outages,
                "%.3f" % res.mttr_s,
                res.batch_failures,
                res.retries,
                res.failovers,
                res.requests_rescued,
                "%d/%d" % (res.breaker_opens, res.breaker_closes),
            )],
            title="Resilience (chaos seed %d%s)"
            % (args.chaos_seed,
               ", resilience disabled" if args.no_resilience else ""),
        ))
    if outcome is not None:
        print()
        print(format_table(
            ["shard", "offered", "completed", "rejected", "status"],
            [(
                shard_label(shard_id),
                shard_report.n_offered,
                shard_report.n_completed,
                shard_report.n_rejected,
                _shard_status(outcome, shard_id),
            ) for shard_id, shard_report
                in enumerate(outcome.shard_reports)],
            title="Per shard (%d shards, %d re-homed, %d retries)"
            % (args.shards, outcome.rehomed,
               outcome.supervision.counters()["retries"]),
        ))
    counts = report.ledger.event_counts()
    print()
    print(
        "events: "
        + ", ".join(
            "%s=%d" % (kind, count) for kind, count in counts.items() if count
        )
    )
    print("fingerprint: %s" % report.fingerprint())
    return 0


def _cmd_trace(args) -> int:
    """Instrumented routing run of one paper scenario."""
    scenario = _SCENARIOS[args.scenario]()
    architectures = [
        get_architecture(name.strip()) for name in args.gpus.split(",")
    ]
    fleet = FleetManager(
        scenario.network, scenario.spec, architectures=architectures
    )
    tenant = Tenant.from_spec(scenario.spec, priority=1)
    loads = [
        TenantLoad(
            tenant,
            bursty_trace(
                n_requests=args.requests,
                rate_hz=args.load * fleet.capacity_rps(),
                seed=args.seed,
            ),
        )
    ]
    faults = None
    if args.chaos:
        horizon = float(loads[0].trace.arrivals_s[-1])
        faults = generate_fault_trace(
            platforms=sorted(fleet.deploy_all()),
            horizon_s=horizon,
            config=FaultTraceConfig(
                outages=1,
                outage_duration_s=0.25 * horizon,
                transients=2,
            ),
            seed=args.chaos_seed,
        )

    obs = Instrumentation()
    report = RequestRouter(fleet, RouterConfig()).run(
        loads, faults, obs=obs
    )
    _write_obs_exports(obs.buffer, obs.metrics.snapshot(), args)
    if args.prometheus_out is not None:
        with open(args.prometheus_out, "w") as handle:
            handle.write(prometheus_text(obs.metrics))
        print(
            "prometheus exposition written to %s" % args.prometheus_out,
            file=sys.stderr,
        )

    counts = obs.buffer.counts
    print(format_table(
        ["span", "count"],
        [(name, counts[name]) for name in sorted(counts) if counts[name]],
        title="Trace of %s (%d spans, %d requests, %d platforms)"
        % (
            args.scenario,
            len(obs.buffer),
            report.n_offered,
            len(report.platforms),
        ),
    ))
    print()
    print(format_table(
        ["metric", "value"],
        [
            ("completed", report.n_completed),
            ("rejected", report.n_rejected),
            ("deadline hit-rate", "%.0f%%" % (report.deadline_hit_rate * 100)),
            ("mean SoC", "%.3f" % report.mean_soc),
            ("p95 latency ms",
             "%.1f" % (report.percentile_latency_s(95.0) * 1e3)),
            ("metric series", obs.metrics.n_series),
            ("trace fingerprint", obs.buffer.fingerprint()),
        ],
        title="Run summary",
    ))
    return 0


_COMMANDS = {
    "platforms": _cmd_platforms,
    "networks": _cmd_networks,
    "describe": _cmd_describe,
    "compile": _cmd_compile,
    "compare": _cmd_compare,
    "profile": _cmd_profile,
    "roofline": _cmd_roofline,
    "evaluate": _cmd_evaluate,
    "tune": _cmd_tune,
    "serve-fleet": _cmd_serve_fleet,
    "trace": _cmd_trace,
    "lint": run_lint_command,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
