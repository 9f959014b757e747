"""Deterministic observability: tracing spans, metrics, exporters.

Everything here is sim-clock-driven and zero-dependency; see
:mod:`repro.obs.span`, :mod:`repro.obs.metrics`,
:mod:`repro.obs.export`, :mod:`repro.obs.instrument` and
:mod:`repro.obs.jsontext`.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    metrics_to_json,
    prometheus_text,
    trace_to_json,
    validate_chrome_trace,
)
from repro.obs.instrument import (
    CACHE_SENSITIVE_METRIC_PREFIX,
    SUPERVISION_METRIC_PREFIX,
    Instrumentation,
    cache_neutral_obs_section,
    merge_obs_sections,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    OCCUPANCY_BUCKETS,
    SLACK_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    linear_percentile,
    ordered_sum,
)
from repro.obs.span import (
    CACHE_SENSITIVE_SPANS,
    SPAN_NAMES,
    Span,
    TraceBuffer,
    Tracer,
)

__all__ = [
    "CACHE_SENSITIVE_METRIC_PREFIX",
    "CACHE_SENSITIVE_SPANS",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "OCCUPANCY_BUCKETS",
    "SLACK_BUCKETS_S",
    "SPAN_NAMES",
    "SUPERVISION_METRIC_PREFIX",
    "Span",
    "TraceBuffer",
    "Tracer",
    "cache_neutral_obs_section",
    "chrome_trace",
    "chrome_trace_json",
    "linear_percentile",
    "merge_obs_sections",
    "metrics_to_json",
    "ordered_sum",
    "prometheus_text",
    "trace_to_json",
    "validate_chrome_trace",
]
