"""Tests for repro.obs.export: JSON, Prometheus text, Chrome trace."""

import json

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    metrics_to_json,
    prometheus_text,
    trace_to_json,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import TraceBuffer, Tracer


def _sample_buffer():
    tracer = Tracer()
    run = tracer.open_row("run", 0.0, None, ("platforms",), ("a,b",))
    pa = tracer.open_row("platform", 0.0, run, ("platform",), ("a",))
    batch = tracer.open_row(
        "execute_batch", 0.5, pa, ("platform", "batch"), ("a", 4)
    )
    tracer.close_row(batch, 1.5)
    tracer.instant_row("admission", 0.25, run, ("reason",), ("ok",))
    tracer.close_row(pa, 2.0)
    tracer.close_row(run, 2.0)
    return tracer.buffer


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("served_total", "requests served", platform="a").inc(3)
    registry.gauge("queue_depth", "queued", platform="a").set(2)
    hist = registry.histogram("lat_s", (0.1, 1.0), "latency")
    for v in (0.05, 0.1, 2.0):
        hist.observe(v)
    return registry


class TestJsonExports:
    def test_trace_json_round_trips(self):
        buffer = _sample_buffer()
        payload = trace_to_json(buffer)
        assert TraceBuffer.from_json(payload).to_json() == buffer.to_json()
        # canonical: compact separators, sorted keys
        assert ": " not in payload

    def test_metrics_json_is_sorted_canonical(self):
        payload = metrics_to_json(_sample_registry())
        data = json.loads(payload)
        assert list(data) == sorted(data)
        assert json.dumps(data, sort_keys=True, separators=(",", ":")) == payload


class TestPrometheusText:
    def test_exposition_structure(self):
        text = prometheus_text(_sample_registry())
        lines = text.splitlines()
        assert "# TYPE served_total counter" in lines
        assert 'served_total{platform="a"} 3' in text
        assert "# TYPE lat_s histogram" in lines
        assert 'lat_s_bucket{le="0.1"} 2' in lines  # upper-inclusive
        assert 'lat_s_bucket{le="1"} 2' in lines
        assert 'lat_s_bucket{le="+Inf"} 3' in lines
        assert "lat_s_count 3" in lines
        assert text.endswith("\n")

    def test_help_lines_present(self):
        text = prometheus_text(_sample_registry())
        assert "# HELP served_total requests served" in text

    def test_deterministic_across_insertion_orders(self):
        a = MetricsRegistry()
        a.counter("x", platform="b").inc()
        a.counter("x", platform="a").inc()
        b = MetricsRegistry()
        b.counter("x", platform="a").inc()
        b.counter("x", platform="b").inc()
        assert prometheus_text(a) == prometheus_text(b)


class TestChromeTrace:
    def test_valid_and_loads_all_spans(self):
        buffer = _sample_buffer()
        data = chrome_trace(buffer)
        assert validate_chrome_trace(data) == []
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(buffer)

    def test_platform_spans_get_their_own_track(self):
        data = chrome_trace(_sample_buffer())
        events = data["traceEvents"]
        batch = next(e for e in events if e["name"] == "execute_batch")
        run = next(e for e in events if e["name"] == "run")
        assert batch["tid"] != run["tid"]
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "a" in thread_names and "router" in thread_names

    def test_timestamps_are_sim_microseconds(self):
        data = chrome_trace(_sample_buffer())
        batch = next(
            e for e in data["traceEvents"] if e["name"] == "execute_batch"
        )
        assert batch["ts"] == 0.5e6
        assert batch["dur"] == 1.0e6

    def test_instants_get_minimum_render_duration(self):
        data = chrome_trace(_sample_buffer())
        admission = next(
            e for e in data["traceEvents"] if e["name"] == "admission"
        )
        assert admission["dur"] == 1.0

    def test_json_rendering_is_canonical(self):
        buffer = _sample_buffer()
        assert chrome_trace_json(buffer) == chrome_trace_json(buffer)
        assert chrome_trace(buffer) == json.loads(chrome_trace_json(buffer))


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_flags_empty_trace(self):
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )

    def test_flags_bad_events(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "X", "pid": 1, "tid": 0, "ts": -1, "dur": 1},
                    {"name": "ok", "ph": "Z", "pid": "1", "tid": 0},
                    {"name": "ok", "ph": "X", "pid": 1, "tid": 0,
                     "ts": 0, "dur": 1, "args": "bad"},
                ]
            }
        )
        text = "\n".join(problems)
        assert "missing name" in text
        assert ">= 0" in text
        assert "unknown phase" in text
        assert "pid must be an int" in text
        assert "args must be an object" in text

    def test_flags_bool_pid_and_tid(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "a", "ph": "X", "pid": True, "tid": 0,
                     "ts": 0, "dur": 1},
                    {"name": "b", "ph": "X", "pid": 1, "tid": False,
                     "ts": 0, "dur": 1},
                ]
            }
        )
        assert problems == [
            "traceEvents[0]: pid must be an int",
            "traceEvents[1]: tid must be an int",
        ]
