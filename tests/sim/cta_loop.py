"""The per-CTA kernel loop: the group simulator's differential oracle.

:func:`repro.sim.engine.simulate_kernel` steps groups of CTAs that
share their remaining work.  This module keeps the loop it replaced --
one :class:`~repro.sim.sm.CTA` object per thread block, one
``select_sm`` call per dispatch over a freshly built residency list,
and one :class:`~repro.sim.sm.SMState` per SM -- as the independent
second implementation the tests compare it against, field for field
and trace row for trace row::

    from tests.sim.cta_loop import simulate_kernel_per_cta

    assert simulate_kernel(*args) == simulate_kernel_per_cta(*args)

The code is the loop as it left ``src/``, unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.gpu import occupancy
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import GemmShape, SgemmKernel
from repro.gpu.libraries import KernelLibrary
from repro.obs.metrics import ordered_sum
from repro.sim.cta_scheduler import CTAScheduler, RoundRobinScheduler
from repro.sim.engine import KernelResult, _energy, cta_work
from repro.sim.sm import CTA, SMState
from repro.sim.trace import ExecutionTrace


def simulate_kernel_per_cta(
    arch: GPUArchitecture,
    kernel: SgemmKernel,
    shape: GemmShape,
    library: Optional[KernelLibrary] = None,
    scheduler: Optional[CTAScheduler] = None,
    max_ctas_per_sm: Optional[int] = None,
    collect_trace: bool = False,
) -> KernelResult:
    """Run one SGEMM launch one CTA at a time (same signature and
    result as :func:`repro.sim.engine.simulate_kernel`)."""
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
    grid = kernel.grid_size(shape)
    peak_rate = arch.cores_per_sm * issue_eff

    sms = [SMState(i, peak_rate) for i in range(arch.n_sms)]
    trace = ExecutionTrace() if collect_trace else None
    next_cta = 0
    now = 0.0
    tlp_time_integral = 0.0

    def dispatch_until_stalled() -> None:
        nonlocal next_cta
        while next_cta < grid:
            residency = [sm.residency for sm in sms]
            target = scheduler.select_sm(residency, max_ctas_per_sm)
            if target is None:
                return
            cta = CTA(cta_id=next_cta, work=work.weighted)
            sms[target].dispatch(cta, now)
            if trace is not None:
                trace.record(now, "dispatch", cta.cta_id, target)
            next_cta += 1

    dispatch_until_stalled()
    remaining = grid
    while remaining > 0:
        step = None
        for sm in sms:
            candidate = sm.next_completion_in()
            if candidate is not None and (step is None or candidate < step):
                step = candidate
        if step is None:
            raise RuntimeError(
                "simulation deadlock: %d CTAs left but no SM is executing"
                % remaining
            )
        resident_now = sum(sm.residency for sm in sms)
        tlp_time_integral += resident_now * step
        for sm in sms:
            finished = sm.advance(step, now)
            for cta in finished:
                remaining -= 1
                if trace is not None:
                    trace.record(now + step, "retire", cta.cta_id, sm.sm_id)
        now += step
        dispatch_until_stalled()

    cycles = now * overhead
    seconds = arch.cycles_to_seconds(cycles)
    dram_total = work.dram_bytes * grid
    bandwidth_floor = dram_total / arch.mem_bandwidth_bytes_per_s
    seconds = max(seconds, bandwidth_floor)
    cycles = arch.seconds_to_cycles(seconds)

    used = [sm for sm in sms if sm.ctas_retired > 0]
    sms_used = len(used)
    powered = max(scheduler.powered_sms(arch.n_sms), sms_used)
    busy_sm_seconds = ordered_sum(
        arch.cycles_to_seconds(sm.busy_cycles * overhead) for sm in used
    )
    avg_tlp = tlp_time_integral / now / max(sms_used, 1) if now > 0 else 0.0
    # Issue activity: useful instructions versus what the busy SMs could
    # have issued while busy.
    issued_capacity = ordered_sum(sm.busy_cycles for sm in used) * arch.cores_per_sm
    activity = min(1.0, (work.total_insts * grid) / issued_capacity) if issued_capacity else 0.0
    energy_joules = _energy(arch, seconds, powered, busy_sm_seconds, activity)
    if trace is not None:
        trace.finalize({sm.sm_id: sm.busy_cycles for sm in used})
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
