"""User-input module: application specs and requirement inference.

The paper (Section IV.A) argues end-users should not have to state
their latency/accuracy requirements per request.  Instead the
application's *specification* (its task class and data-generation rate)
is mapped through a lookup table of human-experience constants to a
:class:`~repro.core.satisfaction.TimeRequirement` and an entropy
tolerance.  The constants follow the paper's sources: 100 ms
imperceptible latency for interaction [31], 3 s abandonment [32],
frame-rate deadlines for real-time streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.satisfaction import TaskClass, TimeRequirement
from repro.validation import require_finite

__all__ = [
    "ApplicationSpec",
    "InferredRequirement",
    "infer_requirement",
    "REQUIREMENT_TABLE",
]


@dataclass(frozen=True)
class ApplicationSpec:
    """What a CNN-based application declares about itself.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"age-detection"``).
    task_class:
        One of :class:`TaskClass`'s constants.
    data_rate_hz:
        Input items generated per second (frames for surveillance,
        photos for tagging).  Interactive apps submit one request and
        wait, so their effective rate is per-request.
    frame_rate_hz:
        For real-time tasks: the stream rate that defines the deadline.
    accuracy_sensitive:
        Whether the use case demands full accuracy (surveillance /
        security) or tolerates graceful degradation (entertainment).
    entropy_slack:
        Allowed relative increase of output entropy over the dense
        network's baseline when ``accuracy_sensitive`` is False.
    """

    name: str
    task_class: str
    data_rate_hz: float = 1.0
    frame_rate_hz: Optional[float] = None
    accuracy_sensitive: bool = False
    entropy_slack: float = 0.30

    def __post_init__(self) -> None:
        if self.task_class not in TaskClass.ALL:
            raise ValueError(
                "task_class must be one of %s, got %r"
                % (TaskClass.ALL, self.task_class)
            )
        require_finite(
            data_rate_hz=self.data_rate_hz, frame_rate_hz=self.frame_rate_hz
        )
        if self.data_rate_hz <= 0:
            raise ValueError("data_rate_hz must be positive")
        if self.frame_rate_hz is not None and self.frame_rate_hz <= 0:
            raise ValueError(
                "frame_rate_hz must be positive, got %r" % (self.frame_rate_hz,)
            )
        if self.task_class == TaskClass.REAL_TIME and not self.frame_rate_hz:
            raise ValueError("real-time tasks must declare frame_rate_hz")
        if not self.entropy_slack >= 0:  # NaN fails this too
            raise ValueError(
                "entropy_slack must be non-negative, got %r"
                % (self.entropy_slack,)
            )


@dataclass(frozen=True)
class InferredRequirement:
    """What the lookup produced: timing + accuracy tolerance."""

    time: TimeRequirement
    entropy_slack: float

    def entropy_threshold(self, baseline_entropy: float) -> float:
        """Absolute CNN_entropy threshold given the dense network's
        baseline entropy on representative data."""
        if baseline_entropy <= 0:
            raise ValueError("baseline entropy must be positive")
        return baseline_entropy * (1.0 + self.entropy_slack)


#: Default human-experience constants per task class (Section V.C):
#: interactive T_i = 100 ms / T_t = 3 s; background unbounded.
REQUIREMENT_TABLE = {
    TaskClass.INTERACTIVE: TimeRequirement.interactive(),
    TaskClass.BACKGROUND: TimeRequirement.background(),
}


def infer_requirement(spec: ApplicationSpec) -> InferredRequirement:
    """Infer the user's requirement from the application spec.

    Real-time tasks derive their hard deadline from the frame rate
    (1/60 s for 60 FPS video); other classes come from the lookup
    table.  Accuracy-sensitive apps get zero entropy slack.
    """
    if spec.task_class == TaskClass.REAL_TIME:
        time = TimeRequirement.real_time(1.0 / float(spec.frame_rate_hz))
    else:
        time = REQUIREMENT_TABLE[spec.task_class]
    slack = 0.0 if spec.accuracy_sensitive else spec.entropy_slack
    return InferredRequirement(time=time, entropy_slack=slack)
