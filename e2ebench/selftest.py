"""Self-test of the benchmark at its smallest size.

    python3 e2ebench/selftest.py

Runs every workload with a few dozen requests and checks that every
metric ``BENCHMARK.json`` names is printed with its unit, that a wrong
op is counted as failed without stopping the run, that a boundary
deleted at runtime is reported absent, and that the benchmark stays on
the default public path of ``repro``.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import json
import os
import unittest

import run
import spans

#: Interactive requests per draw.  Tiny chaos runs can lose a request
#: (serve-fleet --requests 40 --chaos --seed 103 reports 49 of 50), so
#: the smallest size is one where every draw of the seeds used is clean.
SMALL_REQUESTS = 60
BENCHMARK_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def small_spec(pins=None) -> dict:
    spec = copy.deepcopy(run.load_spec())
    spec["setup_repeats"] = 1
    for name, workload in spec["workloads"].items():
        workload["requests"] = SMALL_REQUESTS
        workload["fingerprints"] = dict((pins or {}).get(name, {}))
    return spec


def run_main(argv, spec) -> tuple:
    """``run.main`` on ``spec``; returns (stdout lines, last-line JSON)."""
    original = run.load_spec
    run.load_spec = lambda: spec
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
    finally:
        run.load_spec = original
    assert code == 0, code
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


class MetricsPrint(unittest.TestCase):
    def test_every_named_metric_prints_with_its_unit(self):
        with open(BENCHMARK_PATH) as handle:
            bench = json.load(handle)
        spec = small_spec()
        self.assertEqual(
            sorted(w["name"] for w in bench["workloads"]),
            sorted(spec["workloads"]),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [
                (name, layer["unit"], layer["better"])
                for name, layer in spec["per_layer"].items()
            ],
        )
        for workload in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_main(
                        ["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)],
                        spec,
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in bench[kind]}
                    got = {
                        name: metric["unit"]
                        for name, metric in result["metrics"].items()
                    }
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        self.assertTrue(any(
                            line.split()[:1] == [name]
                            and line.split()[-1] == unit
                            for line in lines
                        ), name)

    def test_wrong_pinned_fingerprint_fails_every_op(self):
        pins = {"storm": {"3": "0" * 40}}
        _, result = run_main(
            ["--workload", "storm", "--seed", "3", "--seconds", "0"],
            small_spec(pins),
        )
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class FailedOps(unittest.TestCase):
    def test_report_missing_a_rejected_record_is_a_failed_op(self):
        from storms import WORKLOADS, check

        spec = small_spec()
        # Enough load that admission turns some requests away.
        workload = WORKLOADS["storm"](400)
        measured = run.Run(workload, 5, spec, check)
        measured.set_up()
        honest_op = workload.op
        calls = []

        def drop_one_rejection(inputs, tracer):
            result = honest_op(inputs, tracer)
            calls.append(result)
            if len(calls) == 2:
                self.assertTrue(result.report.rejected)
                result.report.rejected.pop()
            return result

        workload.op = drop_one_rejection
        _, _, first = measured.timed_op()
        _, _, second = measured.timed_op()
        self.assertIsNotNone(first)
        self.assertIsNone(second)
        self.assertEqual((measured.attempted, measured.failed), (2, 1))
        self.assertIn("terminal records", measured.problems[0])
        _, _, third = measured.timed_op()
        self.assertIsNotNone(third)


class AbsentBoundaries(unittest.TestCase):
    def test_deleted_boundary_is_reported_absent(self):
        import repro.serving.shard.coordinator as coordinator

        from storms import WORKLOADS, check

        spec = small_spec()
        boundaries = spans.BOUNDARIES + (
            ("shard.qualify", "repro.serving.report", "RouterReport.no_such"),
            ("shard.qualify", "repro.no_such_module", "anything"),
        )
        original = coordinator.strip_requests
        del coordinator.strip_requests
        try:
            measured = run.Run(
                WORKLOADS["storm_sharded"](SMALL_REQUESTS), 3, spec, check
            )
            tracer = spans.Tracer(boundaries)
            measured.set_up()
            _, _, result = measured.timed_op(tracer)
        finally:
            coordinator.strip_requests = original
        self.assertIsNotNone(result)
        status = tracer.status
        self.assertEqual(
            status[("repro.serving.shard.coordinator", "strip_requests")],
            "missing",
        )
        self.assertEqual(
            status[("repro.serving.report", "RouterReport.no_such")],
            "missing",
        )
        self.assertEqual(
            status[("repro.no_such_module", "anything")], "missing"
        )
        self.assertEqual(
            status[("repro.serving.shard.coordinator", "qualify_report")], "ok"
        )
        # Every patch is undone.
        self.assertIs(coordinator.strip_requests, original)
        self.assertFalse(hasattr(coordinator.qualify_report, "__wrapped__"))

    def test_uncalled_boundary_is_absent_not_zero_work(self):
        lines, result = run_main(
            ["--workload", "storm", "--seed", "3", "--seconds", "0",
             "--trace", "1"],
            small_spec(),
        )
        absent = [line for line in lines if line.startswith("absent")]
        self.assertEqual(len(absent), 1)
        self.assertIn("shard.merge_s", absent[0])
        self.assertIn("control.tick_s", absent[0])
        self.assertNotIn("serving.route_s", absent[0])
        self.assertTrue(result["correct"])


class PublicPathOnly(unittest.TestCase):
    def test_no_backend_argument_and_no_private_repro_name(self):
        here = os.path.dirname(os.path.abspath(__file__))
        for filename in sorted(os.listdir(here)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(here, filename)) as handle:
                tree = ast.parse(handle.read(), filename)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    for keyword in node.keywords:
                        self.assertNotEqual(keyword.arg, "backend", filename)
                if isinstance(node, ast.ImportFrom) and (
                    node.module or ""
                ).startswith("repro"):
                    for part in node.module.split("."):
                        self.assertFalse(part.startswith("_"), filename)
                    for alias in node.names:
                        self.assertFalse(alias.name.startswith("_"), filename)
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro"):
                            for part in alias.name.split("."):
                                self.assertFalse(part.startswith("_"))
        for _name, module, path in spans.BOUNDARIES:
            for part in module.split(".") + path.split("."):
                self.assertFalse(part.startswith("_"), (module, path))


if __name__ == "__main__":
    if not run.use_checkout_package():
        raise SystemExit("selftest: no src/repro in this checkout")
    unittest.main()
