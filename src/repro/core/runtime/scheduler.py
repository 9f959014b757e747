"""Run-time kernel management (paper Section IV.C.2).

Executes a :class:`~repro.core.offline.compiler.CompiledPlan` on the
event-driven simulator.  For every layer the manager builds a
Priority-SM scheduler from the tuning table's (optTLP, optSM) pair,
packs the layer's CTAs onto exactly ``optSM`` SMs and power gates the
remaining ``maxSM - optSM`` -- the paper's energy lever.  A
non-gating mode (hardware Round-Robin over all SMs) is provided for
the baseline schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.offline.compiler import CompiledPlan, LayerSchedule
from repro.core.offline.kernel_tuning import PCNN_BACKEND
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.energy import PowerState, power_draw_w
from repro.gpu.libraries import KernelLibrary
from repro.obs.metrics import ordered_sum
from repro.sim.cta_scheduler import PrioritySMScheduler, RoundRobinScheduler
from repro.sim.engine import KernelResult, analytic_kernel_result, simulate_kernel

__all__ = ["LayerExecution", "ExecutionReport", "RuntimeKernelManager"]


@dataclass(frozen=True)
class LayerExecution:
    """Simulated outcome of one layer (all its per-group GEMMs)."""

    name: str
    time_s: float
    energy_joules: float
    sms_used: int
    powered_sms: int
    predicted_time_s: float

    @property
    def prediction_error(self) -> float:
        """Relative error of the offline time model vs the simulator."""
        if self.time_s == 0:
            return 0.0
        return abs(self.predicted_time_s - self.time_s) / self.time_s


@dataclass
class ExecutionReport:
    """Whole-network execution under one compiled plan."""

    layers: List[LayerExecution] = field(default_factory=list)
    aux_time_s: float = 0.0
    aux_energy_joules: float = 0.0

    @property
    def total_time_s(self) -> float:
        """Simulated end-to-end batch time."""
        return ordered_sum(layer.time_s for layer in self.layers) + self.aux_time_s

    @property
    def total_energy_joules(self) -> float:
        """Simulated energy."""
        return (
            ordered_sum(layer.energy_joules for layer in self.layers)
            + self.aux_energy_joules
        )

    @property
    def max_powered_sms(self) -> int:
        """Most SMs powered at any point."""
        return max((layer.powered_sms for layer in self.layers), default=0)


class RuntimeKernelManager:
    """Dispatches a compiled plan layer-by-layer onto the simulator.

    A layer's kernel result is a pure function of (kernel, shape,
    optTLP, optSM) under the manager's fixed architecture, backend and
    mode, so each distinct launch is simulated once per manager: a
    grouped layer's identical per-group GEMMs share one result, and so
    do later layers and plans that repeat a launch.  The per-group
    sums are still added one group at a time, in order.
    """

    def __init__(
        self,
        arch: GPUArchitecture,
        backend: KernelLibrary = PCNN_BACKEND,
        power_gating: bool = True,
        use_priority_sm: bool = True,
        max_sim_ctas: int = 4096,
    ) -> None:
        self.arch = arch
        self.backend = backend
        self.power_gating = power_gating
        self.use_priority_sm = use_priority_sm
        # Grids above this run through the closed-form steady-state
        # model instead of the event loop (identical in that regime).
        self.max_sim_ctas = max_sim_ctas
        self._results: Dict[tuple, KernelResult] = {}

    def _scheduler_for(self, schedule: LayerSchedule):
        if self.use_priority_sm:
            return PrioritySMScheduler(
                opt_tlp=schedule.opt_tlp, opt_sm=schedule.opt_sm
            )
        return RoundRobinScheduler()

    def execute(self, plan: CompiledPlan) -> ExecutionReport:
        """Simulate the full network once (one batch)."""
        report = ExecutionReport()
        for schedule in plan.schedules:
            key = (
                schedule.tuned.kernel,
                schedule.shape,
                schedule.opt_tlp,
                schedule.opt_sm,
            )
            result = self._results.get(key)
            if result is None:
                result = self._results[key] = self._run_layer(schedule)
            group_energy = self._kernel_energy(result)
            time_s = 0.0
            energy = 0.0
            for _group in range(schedule.gemm_count):
                time_s += result.seconds
                energy += group_energy
            report.layers.append(
                LayerExecution(
                    name=schedule.name,
                    time_s=time_s,
                    energy_joules=energy,
                    sms_used=result.sms_used,
                    powered_sms=self._powered_sms(result),
                    predicted_time_s=schedule.time_s,
                )
            )
        report.aux_time_s = plan.aux_time_s
        report.aux_energy_joules = self._aux_energy(plan.aux_time_s)
        return report

    # ------------------------------------------------------------------
    def _run_layer(self, schedule: LayerSchedule) -> KernelResult:
        if schedule.grid_size > self.max_sim_ctas:
            n_sms = (
                schedule.opt_sm if self.use_priority_sm else self.arch.n_sms
            )
            return analytic_kernel_result(
                self.arch,
                schedule.tuned.kernel,
                schedule.shape,
                library=self.backend,
                tlp=schedule.opt_tlp,
                n_sms=n_sms,
            )
        scheduler = self._scheduler_for(schedule)
        # The occupancy cap is the tuned TLP: the compiler already
        # verified the spill plan fits at that residency.
        return simulate_kernel(
            self.arch,
            schedule.tuned.kernel,
            schedule.shape,
            library=self.backend,
            scheduler=scheduler,
            max_ctas_per_sm=schedule.opt_tlp,
        )

    def _powered_sms(self, result: KernelResult) -> int:
        if self.power_gating:
            return result.powered_sms
        return self.arch.n_sms

    def _kernel_energy(self, result: KernelResult) -> float:
        if self.power_gating:
            return result.energy_joules
        # Without gating the whole chip pays static power for the
        # kernel's duration; dynamic energy is unchanged.
        extra_sms = self.arch.n_sms - result.powered_sms
        static_extra = extra_sms * self.arch.sm_static_power_w * result.seconds
        return result.energy_joules + static_extra

    def _aux_energy(self, aux_time_s: float) -> float:
        powered = 1 if self.power_gating else self.arch.n_sms
        state = PowerState(powered_sms=powered, busy_sms=min(1, powered), activity=0.3)
        return power_draw_w(self.arch, state) * aux_time_s
