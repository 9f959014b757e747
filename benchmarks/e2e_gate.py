"""End-to-end gate: a change against its parent, as a user waits.

    python3 benchmarks/e2e_gate.py PARENT_DIR CHANGE_DIR --seconds 4

For every workload ``BENCHMARK.json`` declares, runs
``e2ebench/run.py --workload W --seed 42 --seconds S --trace 0`` in
both source checkouts, in ``PAIRS`` pairs, alternating which tree goes
first, and reads each run's last stdout line (one JSON object).
The gate fails when any run is not ``correct`` or failed an op, or
when, on any workload, any ``end_to_end`` metric ``BENCHMARK.json``
declares is worse than the parent's by more than that metric's
``bound`` in a majority of the pairs.  Worse means
``change > parent * (1 + bound)`` for a metric whose ``better`` is
``lower`` and ``change < parent * (1 - bound)`` for one whose
``better`` is ``higher``.  Every run reports every metric, so all of
them are judged from the same runs.  Both trees run on one host, back
to back, so the verdict does not depend on how fast the host is.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

SEED = 42
#: Parent/change pairs per workload: enough that a majority verdict
#: outvotes one slow spell of the host.
PAIRS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's source checkout")
    parser.add_argument("change", help="the change's source checkout")
    parser.add_argument(
        "--seconds", type=float, default=4.0,
        help="timed seconds per e2ebench run",
    )
    return parser.parse_args(argv)


def load_benchmark(tree: str):
    """The workload names and the ``end_to_end`` metrics (``name``,
    ``better``, ``bound``) of a checkout's ``BENCHMARK.json``."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    workloads = [workload["name"] for workload in declared["workloads"]]
    return workloads, declared["end_to_end"]


def worse(metric: dict, parent: float, change: float) -> bool:
    """Whether ``change`` is worse than ``parent`` by more than the
    metric's bound."""
    if metric["better"] == "lower":
        return change > parent * (1.0 + metric["bound"])
    return change < parent * (1.0 - metric["bound"])


def run_e2ebench(tree: str, workload: str, seconds: float) -> dict:
    """One untraced e2ebench run in ``tree``: its last-line JSON, or a
    failed result naming what went wrong."""
    completed = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if completed.returncode or "metrics" not in result:
        tail = (completed.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": None, "error": tail}
    return result


def problem(result: dict):
    """Why one run fails the gate, or None."""
    if "error" in result:
        return "run failed: %s" % result["error"]
    if result.get("correct") is not True or result.get("failed"):
        return "not correct: %d of %d ops failed" % (
            result.get("failed") or 0, result.get("attempted") or 0,
        )
    return None


def gate_workload(parent: str, change: str, workload: str, seconds: float,
                  metrics):
    """Run one workload's pairs; returns its failure lines."""
    failures = []
    worse_pairs = {metric["name"]: 0 for metric in metrics}
    for index in range(PAIRS):
        order = [("parent", parent), ("change", change)]
        if index % 2:
            order.reverse()
        values = {}
        for label, tree in order:
            result = run_e2ebench(tree, workload, seconds)
            why = problem(result)
            if why is not None:
                failures.append("%s pair %d %s: %s"
                                % (workload, index, label, why))
                continue
            values[label] = result["metrics"]
        if len(values) < 2:
            print("%-14s pair %d: incomplete" % (workload, index))
            continue
        cells = []
        for metric in metrics:
            name = metric["name"]
            was = values["parent"][name]["value"]
            now = values["change"][name]["value"]
            bad = worse(metric, was, now)
            worse_pairs[name] += bad
            cells.append("%s %.4g -> %.4g (x%.3f)%s" % (
                name, was, now, now / was if was else float("inf"),
                " WORSE" if bad else "",
            ))
        print("%-14s pair %d (%s first): %s"
              % (workload, index, order[0][0], ", ".join(cells)), flush=True)
    for metric in metrics:
        count = worse_pairs[metric["name"]]
        if 2 * count > PAIRS:
            failures.append(
                "%s: change's %s (%s is better) is worse than the parent's "
                "by more than %.0f%% in %d of %d pairs"
                % (workload, metric["name"], metric["better"],
                   metric["bound"] * 100, count, PAIRS)
            )
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, metrics = load_benchmark(args.change)
    failures = []
    for workload in workloads:
        failures += gate_workload(args.parent, args.change, workload,
                                  args.seconds, metrics)
    for line in failures:
        print("FAIL %s" % line)
    if not failures:
        print("e2e gate passed: %s each within its bound of the parent "
              "on %s" % (", ".join(metric["name"] for metric in metrics),
                         ", ".join(workloads)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
