"""Cross-platform offline compilation: batch selection, coordinated
kernel fine-tuning, the resource model (optSM) and the time model."""

from repro.core.offline.artifact import (
    load_plan,
    load_tuning_table,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    save_tuning_table,
)
from repro.core.offline.batch_selection import (
    background_batch,
    initial_batch,
    max_batch_fitting_memory,
    shrink_batch,
    utilization_at_batch,
)
from repro.core.offline.compiler import CompiledPlan, LayerSchedule, OfflineCompiler
from repro.core.offline.kernel_tuning import (
    PCNN_BACKEND,
    TunedKernel,
    TuningCandidates,
    candidate_kernels,
    kernel_score,
    pick_tuned_kernel,
    s_kernel,
    tune_layer_kernel,
    tuning_candidates,
)
from repro.core.offline.resource_model import opt_sm, released_sms
from repro.core.offline.time_model import eq12_layer_time, layer_time

__all__ = [
    "load_plan",
    "load_tuning_table",
    "save_tuning_table",
    "plan_from_dict",
    "plan_to_dict",
    "save_plan",
    "background_batch",
    "initial_batch",
    "max_batch_fitting_memory",
    "shrink_batch",
    "utilization_at_batch",
    "CompiledPlan",
    "LayerSchedule",
    "OfflineCompiler",
    "PCNN_BACKEND",
    "TunedKernel",
    "TuningCandidates",
    "candidate_kernels",
    "kernel_score",
    "pick_tuned_kernel",
    "s_kernel",
    "tune_layer_kernel",
    "tuning_candidates",
    "opt_sm",
    "released_sms",
    "eq12_layer_time",
    "layer_time",
]
