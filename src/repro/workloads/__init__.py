"""Evaluation workloads: the paper's three scenarios and request-stream
generators."""

from repro.workloads.generators import (
    RequestTrace,
    background_trace,
    bursty_trace,
    difficulty_shift,
    diurnal_trace,
    empty_trace,
    interactive_trace,
    merge_traces,
    pareto_trace,
    realtime_trace,
    scale_rate,
)
from repro.workloads.tasks import (
    Scenario,
    age_detection,
    image_tagging,
    paper_scenarios,
    video_surveillance,
)

__all__ = [
    "RequestTrace",
    "background_trace",
    "bursty_trace",
    "difficulty_shift",
    "diurnal_trace",
    "empty_trace",
    "interactive_trace",
    "merge_traces",
    "pareto_trace",
    "realtime_trace",
    "scale_rate",
    "Scenario",
    "age_detection",
    "image_tagging",
    "paper_scenarios",
    "video_surveillance",
]
