"""P-CNN core: the user-satisfaction metric, requirement inference,
offline compilation and run-time management, plus the top-level
:class:`~repro.core.framework.PervasiveCNN` facade."""

from repro.core.engine import (
    EngineStats,
    ExecutionEngine,
    perforation_fingerprint,
    plan_fingerprint,
)
from repro.core.framework import Deployment, PervasiveCNN, RequestOutcome
from repro.core.satisfaction import (
    SoCBreakdown,
    TaskClass,
    TimeRequirement,
    soc,
    soc_accuracy,
    soc_time,
)
from repro.core.user_input import (
    ApplicationSpec,
    InferredRequirement,
    infer_requirement,
)
from repro.core.user_model import (
    FeedbackEvent,
    LearnedRequirementModel,
    simulate_user_feedback,
)

__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "perforation_fingerprint",
    "plan_fingerprint",
    "Deployment",
    "PervasiveCNN",
    "RequestOutcome",
    "SoCBreakdown",
    "TaskClass",
    "TimeRequirement",
    "soc",
    "soc_accuracy",
    "soc_time",
    "ApplicationSpec",
    "InferredRequirement",
    "infer_requirement",
    "FeedbackEvent",
    "LearnedRequirementModel",
    "simulate_user_feedback",
]
