"""Event-driven kernel execution simulator (the GPGPU-Sim substitute).

The simulator advances time from CTA completion to CTA completion.  At
each event the chosen CTA scheduler refills freed slots; SM throughput
follows the latency-hiding model of :mod:`repro.sim.sm`.  A chip-level
DRAM bandwidth bound is applied at the end (a kernel cannot finish
faster than its global traffic can stream).

Two entry points:

* :func:`simulate_kernel` -- full event simulation; supports arbitrary
  CTA schedulers and produces an optional :class:`ExecutionTrace` and
  an energy estimate.  Used for the RR-vs-PSM experiments (Fig. 7) and
  the scheduler evaluation (Figs. 13-15).
* :func:`analytic_kernel_time_s` -- closed-form wave model matching the
  simulator's steady state; used by the offline time model (Eq. 12)
  where thousands of evaluations are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gpu import occupancy
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import GemmShape, SgemmKernel
from repro.gpu.libraries import KernelLibrary
from repro.gpu.spilling import ACCESSES_PER_SPILL, COST_GLOBAL, COST_SHARED
from repro.obs.metrics import ordered_sum
from repro.sim.cta_scheduler import CTAScheduler, RoundRobinScheduler
from repro.sim.sm import DEFAULT_TLP_HALF, latency_hiding_factor
from repro.sim.trace import ExecutionTrace

__all__ = [
    "CTAWork",
    "cta_work",
    "KernelResult",
    "simulate_kernel",
    "analytic_kernel_time_s",
    "analytic_kernel_result",
]


@dataclass(frozen=True)
class CTAWork:
    """Instruction-mix breakdown of one CTA's execution.

    ``weighted`` is the scalar work fed to the SM throughput model:
    FFMAs count 1, shared-memory accesses :data:`COST_SHARED`, global
    accesses :data:`COST_GLOBAL`, bookkeeping 1.  ``dram_bytes`` feeds
    the chip bandwidth bound.
    """

    ffma: float
    shared_insts: float
    global_insts: float
    other_insts: float
    dram_bytes: float

    @property
    def weighted(self) -> float:
        """Scalar work in instruction-equivalents."""
        return (
            self.ffma
            + self.shared_insts * COST_SHARED
            + self.global_insts * COST_GLOBAL
            + self.other_insts
        )

    @property
    def total_insts(self) -> float:
        """Unweighted instruction count."""
        return self.ffma + self.shared_insts + self.global_insts + self.other_insts


def cta_work(kernel: SgemmKernel, shape: GemmShape) -> CTAWork:
    """Instruction mix of one CTA of ``kernel`` over ``shape``'s K depth.

    Operand tiles are fetched from DRAM once and staged through shared
    memory; results are stored once; spilled registers incur
    :data:`ACCESSES_PER_SPILL` accesses per K step per thread, placed
    wherever the spill plan put them.
    """
    k = shape.k_depth
    k_steps = math.ceil(k / kernel.k_unroll)
    # Tiles overhanging the matrix edge predicate their loads off: a
    # 128-column tile over a 1-column GEMM (batch-1 classifier) fetches
    # one column of B, not 128.  FFMA lanes still execute on padding
    # (rEC's waste), so only the memory terms are clamped.
    eff_m = min(kernel.tile_m, shape.m_rows)
    eff_n = min(kernel.tile_n, shape.n_cols)
    operand_elements = (eff_m + eff_n) * k
    results = eff_m * eff_n
    spill_sh_words = kernel.spilled_bytes_shared // 4
    spill_gl_words = kernel.spilled_bytes_global // 4
    spill_accesses = ACCESSES_PER_SPILL * k_steps * kernel.block_size
    global_insts = (
        operand_elements + results + spill_gl_words * spill_accesses
    )
    shared_insts = operand_elements + spill_sh_words * spill_accesses
    other = kernel.other_insts_per_cta(k)
    dram_bytes = 4.0 * (
        operand_elements + results + spill_gl_words * spill_accesses
    )
    return CTAWork(
        ffma=kernel.ffma_per_cta(k),
        shared_insts=float(shared_insts),
        global_insts=float(global_insts),
        other_insts=other,
        dram_bytes=dram_bytes,
    )


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one simulated (or analytically modeled) kernel.

    Attributes
    ----------
    cycles / seconds:
        Kernel duration.
    grid_size:
        CTAs executed.
    sms_used:
        SMs that held at least one CTA.
    powered_sms:
        SMs that had to stay powered (scheduler-dependent).
    avg_tlp:
        Time-averaged CTAs per *used* SM.
    activity:
        Average issue activity of busy SMs in [0, 1] (drives dynamic
        power).
    energy_joules:
        Energy under the architecture's power model, honoring the
        scheduler's ``powered_sms``.
    dram_bytes:
        Total global-memory traffic.
    trace:
        Optional event trace.
    """

    cycles: float
    seconds: float
    grid_size: int
    sms_used: int
    powered_sms: int
    avg_tlp: float
    activity: float
    energy_joules: float
    dram_bytes: float
    trace: Optional[ExecutionTrace] = None


def _energy(
    arch: GPUArchitecture,
    seconds: float,
    powered_sms: int,
    busy_sm_seconds: float,
    activity: float,
) -> float:
    """Integrate the three power components over one kernel."""
    static = arch.idle_power_w * seconds + powered_sms * arch.sm_static_power_w * seconds
    dynamic = busy_sm_seconds * activity * arch.sm_dynamic_power_w
    return static + dynamic


def simulate_kernel(
    arch: GPUArchitecture,
    kernel: SgemmKernel,
    shape: GemmShape,
    library: Optional[KernelLibrary] = None,
    scheduler: Optional[CTAScheduler] = None,
    max_ctas_per_sm: Optional[int] = None,
    collect_trace: bool = False,
) -> KernelResult:
    """Run one SGEMM launch through the event-driven simulator.

    ``library`` contributes its sustained issue efficiency and transform
    overhead (defaults to an ideal back-end).  ``scheduler`` defaults to
    hardware Round-Robin.  ``max_ctas_per_sm`` defaults to the
    occupancy limit of Eq. 5 (+ shared-memory/thread/CTA caps).

    The loop steps groups of CTAs, not CTAs.  Every CTA of a launch
    carries the same work and every event takes the same progress from
    each CTA on an SM, so the CTAs dispatched to one SM at one instant
    keep equal remaining work until they retire together: one group
    stands for them, with the float operations a per-CTA loop would do
    on each, in the same order.  The trace expands groups back into
    per-CTA dispatch and retire rows.
    """
    scheduler = scheduler or RoundRobinScheduler()
    scheduler.reset()
    if max_ctas_per_sm is None:
        max_ctas_per_sm = occupancy.ctas_per_sm(arch, kernel)
    if max_ctas_per_sm < 1:
        raise ValueError(
            "kernel %s cannot fit on %s (occupancy limit is 0)"
            % (kernel.name, arch.name)
        )
    issue_eff = library.issue_efficiency if library else 1.0
    overhead = library.transform_overhead if library else 1.0
    work = cta_work(kernel, shape)
    weighted = work.weighted
    grid = kernel.grid_size(shape)
    peak_rate = arch.cores_per_sm * issue_eff
    n_sms = arch.n_sms

    trace = ExecutionTrace() if collect_trace else None
    # Per SM: resident CTAs and the resident groups in dispatch order,
    # each ``[remaining, count]`` (plus its CTA ids when tracing).  An
    # earlier group never has more work left -- the same subtraction
    # from a smaller start rounds no higher -- so an SM's head group
    # holds its least remaining work and retirements pop a prefix.
    residency = [0] * n_sms
    groups: List[List[list]] = [[] for _ in range(n_sms)]
    busy_cycles = [0.0] * n_sms
    retired = [0] * n_sms
    # Per-CTA progress rate at each residency seen in this launch.
    rate_at: Dict[int, float] = {}
    next_cta = 0
    now = 0.0
    tlp_time_integral = 0.0

    def dispatch() -> None:
        nonlocal next_cta
        if next_cta == grid:
            return
        opened: Dict[int, list] = {}
        for sm, count in scheduler.fill(
            residency, max_ctas_per_sm, grid - next_cta
        ):
            group = opened.get(sm)
            if group is None:
                group = opened[sm] = [weighted, 0]
                if trace is not None:
                    group.append([])
                groups[sm].append(group)
            group[1] += count
            residency[sm] += count
            if trace is not None:
                for cta_id in range(next_cta, next_cta + count):
                    group[2].append(cta_id)
                    trace.record(now, "dispatch", cta_id, sm)
            next_cta += count

    dispatch()
    remaining = grid
    while remaining > 0:
        step = None
        active = []
        for sm in range(n_sms):
            resident = residency[sm]
            if resident:
                rate = rate_at.get(resident)
                if rate is None:
                    rate = rate_at[resident] = (
                        peak_rate
                        * latency_hiding_factor(resident, DEFAULT_TLP_HALF)
                        / resident
                    )
                active.append((sm, rate))
                candidate = groups[sm][0][0] / rate
                if step is None or candidate < step:
                    step = candidate
        if step is None:
            raise RuntimeError(
                "simulation deadlock: %d CTAs left but no SM is executing"
                % remaining
            )
        tlp_time_integral += sum(residency) * step
        for sm, rate in active:
            progressed = step * rate
            sm_groups = groups[sm]
            done = count = 0
            for group in sm_groups:
                group[0] -= progressed
                if group[0] <= 1e-9:
                    done += 1
                    count += group[1]
            busy_cycles[sm] += step
            if not done:
                continue
            finished = sm_groups[:done]
            del sm_groups[:done]
            residency[sm] -= count
            retired[sm] += count
            remaining -= count
            if trace is not None:
                for group in finished:
                    for cta_id in group[2]:
                        trace.record(now + step, "retire", cta_id, sm)
        now += step
        dispatch()

    cycles = now * overhead
    seconds = arch.cycles_to_seconds(cycles)
    dram_total = work.dram_bytes * grid
    bandwidth_floor = dram_total / arch.mem_bandwidth_bytes_per_s
    seconds = max(seconds, bandwidth_floor)
    cycles = arch.seconds_to_cycles(seconds)

    used = [sm for sm in range(n_sms) if retired[sm] > 0]
    sms_used = len(used)
    powered = max(scheduler.powered_sms(n_sms), sms_used)
    busy_sm_seconds = ordered_sum(
        arch.cycles_to_seconds(busy_cycles[sm] * overhead) for sm in used
    )
    avg_tlp = tlp_time_integral / now / max(sms_used, 1) if now > 0 else 0.0
    # Issue activity: useful instructions versus what the busy SMs could
    # have issued while busy.
    issued_capacity = ordered_sum(busy_cycles[sm] for sm in used) * arch.cores_per_sm
    activity = min(1.0, (work.total_insts * grid) / issued_capacity) if issued_capacity else 0.0
    energy_joules = _energy(arch, seconds, powered, busy_sm_seconds, activity)
    if trace is not None:
        trace.finalize({sm: busy_cycles[sm] for sm in used})
    return KernelResult(
        cycles=cycles,
        seconds=seconds,
        grid_size=grid,
        sms_used=sms_used,
        powered_sms=powered,
        avg_tlp=avg_tlp,
        activity=activity,
        energy_joules=energy_joules,
        dram_bytes=dram_total,
        trace=trace,
    )


def analytic_kernel_time_s(
    arch: GPUArchitecture,
    kernel: SgemmKernel,
    shape: GemmShape,
    library: Optional[KernelLibrary] = None,
    tlp: Optional[int] = None,
    n_sms: Optional[int] = None,
) -> float:
    """Closed-form kernel duration in seconds (smooth steady state).

    With ``g = GridSize / n_sms`` CTAs per SM over the whole launch and
    a residency cap of ``tlp``, the SM model's saturating rate
    ``R * t / (t + h)`` integrates to::

        cycles = (w / R) * (g + h * max(g / tlp, 1))

    which matches the event simulator in both limits: big grids run at
    the sustained rate ``R * tlp / (tlp + h)`` (the wave regime of
    Eq. 8), tiny grids pay one CTA's un-hidden latency ``w (1 + h) / R``.
    Unlike a ceil-based wave count, it is smooth in the grid size, so
    perforation's column reduction is always visible to the tuner.
    The DRAM bandwidth floor is applied as in the simulator.
    """
    if tlp is None:
        tlp = occupancy.ctas_per_sm(arch, kernel)
    if tlp < 1:
        raise ValueError("kernel does not fit: occupancy limit is 0")
    if n_sms is None:
        n_sms = arch.n_sms
    if not 1 <= n_sms <= arch.n_sms:
        raise ValueError(
            "n_sms must be in [1, %d], got %r" % (arch.n_sms, n_sms)
        )
    issue_eff = library.issue_efficiency if library else 1.0
    overhead = library.transform_overhead if library else 1.0
    work = cta_work(kernel, shape)
    grid = kernel.grid_size(shape)
    peak_rate = arch.cores_per_sm * issue_eff
    g = grid / n_sms
    hiding_half = DEFAULT_TLP_HALF
    cycles = (work.weighted / peak_rate) * (g + hiding_half * max(g / tlp, 1.0))
    seconds = arch.cycles_to_seconds(cycles * overhead)
    bandwidth_floor = work.dram_bytes * grid / arch.mem_bandwidth_bytes_per_s
    return max(seconds, bandwidth_floor)


def analytic_kernel_result(
    arch: GPUArchitecture,
    kernel: SgemmKernel,
    shape: GemmShape,
    library: Optional[KernelLibrary] = None,
    tlp: Optional[int] = None,
    n_sms: Optional[int] = None,
    powered_sms: Optional[int] = None,
) -> KernelResult:
    """Closed-form :class:`KernelResult` (no event loop, no trace).

    Large batched launches produce grids of 10^4..10^6 CTAs, where the
    event simulation adds nothing but wall-clock time; this fast path
    agrees with :func:`simulate_kernel` in the steady state and is what
    :class:`repro.core.runtime.scheduler.RuntimeKernelManager` switches
    to above its grid-size cutoff.
    """
    if tlp is None:
        tlp = occupancy.ctas_per_sm(arch, kernel)
    if n_sms is None:
        n_sms = arch.n_sms
    seconds = analytic_kernel_time_s(
        arch, kernel, shape, library=library, tlp=tlp, n_sms=n_sms
    )
    work = cta_work(kernel, shape)
    grid = kernel.grid_size(shape)
    sms_used = min(n_sms, grid)
    powered = powered_sms if powered_sms is not None else sms_used
    powered = max(powered, sms_used)
    busy_sm_seconds = seconds * sms_used
    issued_capacity = (
        arch.seconds_to_cycles(busy_sm_seconds) * arch.cores_per_sm
    )
    activity = (
        min(1.0, (work.total_insts * grid) / issued_capacity)
        if issued_capacity
        else 0.0
    )
    energy_joules = _energy(arch, seconds, powered, busy_sm_seconds, activity)
    return KernelResult(
        cycles=arch.seconds_to_cycles(seconds),
        seconds=seconds,
        grid_size=grid,
        sms_used=sms_used,
        powered_sms=powered,
        avg_tlp=min(tlp, grid / max(sms_used, 1)),
        activity=activity,
        energy_joules=energy_joules,
        dram_bytes=work.dram_bytes * grid,
        trace=None,
    )
