"""Spatial multi-kernel execution: sharing the chip between tenants.

Section III.D.2 of the paper discusses why MPS-style multi-processing
cannot give CNN inference latency guarantees (no control over where
thread blocks land) and why naive spatial multitasking wastes SMs
(per-layer Util varies).  P-CNN's answer is that Eq. 11's ``optSM``
frees ``nSMs - optSM`` SMs *per layer* which can host a co-tenant
without touching the primary kernel's wave count.

This module makes that concrete: :func:`simulate_shared` runs several
kernels concurrently, either under a static SM partition
(:func:`partition_for_layer` builds the paper's own-SMs/released-SMs
split) or fully mixed (the MPS-style baseline).  Under the partition
the primary layer keeps its solo latency while the co-tenant gets real
throughput out of the freed SMs; mixed, both tenants' CTAs compete for
every SM and the primary's latency becomes load-dependent -- exactly
the paper's argument against MPS for time-sensitive inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.gpu import occupancy
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import GemmShape, SgemmKernel
from repro.gpu.libraries import KernelLibrary
from repro.sim.engine import cta_work
from repro.sim.sm import CTA, SMState

__all__ = [
    "TenantSpec",
    "TenantResult",
    "SharedRunResult",
    "simulate_shared",
    "partition_for_layer",
]


@dataclass(frozen=True)
class TenantSpec:
    """One kernel stream in a shared run."""

    name: str
    kernel: SgemmKernel
    shape: GemmShape
    library: Optional[KernelLibrary] = None
    max_ctas_per_sm: Optional[int] = None

    def occupancy_cap(self, arch: GPUArchitecture) -> int:
        """Per-SM residency cap for this tenant."""
        if self.max_ctas_per_sm is not None:
            return self.max_ctas_per_sm
        return occupancy.ctas_per_sm(arch, self.kernel)


@dataclass(frozen=True)
class TenantResult:
    """Per-tenant outcome of a shared run."""

    name: str
    seconds: float
    grid_size: int
    sms_used: int


@dataclass(frozen=True)
class SharedRunResult:
    """Outcome of running two tenants on one chip."""

    tenants: Tuple[TenantResult, ...]
    makespan_s: float

    def tenant(self, name: str) -> TenantResult:
        """Look up one tenant's result."""
        for result in self.tenants:
            if result.name == name:
                return result
        raise KeyError("no tenant %r" % (name,))


def partition_for_layer(
    arch: GPUArchitecture, opt_sm: int
) -> Tuple[Sequence[int], Sequence[int]]:
    """The paper's partition: the primary layer owns SMs [0, optSM),
    a co-tenant owns the released SMs [optSM, nSMs)."""
    if not 1 <= opt_sm <= arch.n_sms:
        raise ValueError("opt_sm must be in [1, %d]" % (arch.n_sms,))
    return tuple(range(opt_sm)), tuple(range(opt_sm, arch.n_sms))


def simulate_shared(
    arch: GPUArchitecture,
    tenants: Sequence[Tuple[TenantSpec, Sequence[int]]],
    mix: bool = False,
) -> SharedRunResult:
    """Run multiple kernels concurrently on one simulated chip.

    ``tenants`` pairs each spec with the SM indices it may use; with
    ``mix=True`` the partitions are ignored and every tenant may place
    CTAs on every SM (the MPS-style baseline), with residency shared
    fairly up to the per-tenant occupancy cap.

    Each SM executes the CTAs resident on it regardless of owner; the
    latency-hiding model sees the *total* residency, so co-located
    tenants slow each other exactly as competing blocks would.
    """
    if not tenants:
        raise ValueError("at least one tenant required")
    sms = [SMState(i, arch.cores_per_sm) for i in range(arch.n_sms)]
    n_sms = arch.n_sms

    class _Stream:
        def __init__(
            self, tag: int, spec: TenantSpec, allowed: Sequence[int]
        ) -> None:
            self.tag = tag
            self.spec = spec
            self.allowed = tuple(range(n_sms)) if mix else tuple(allowed)
            if not self.allowed:
                raise ValueError(
                    "tenant %r has no SMs assigned" % (spec.name,)
                )
            eff = spec.library.issue_efficiency if spec.library else 1.0
            overhead = spec.library.transform_overhead if spec.library else 1.0
            self.work = cta_work(spec.kernel, spec.shape).weighted / eff * overhead
            self.cap = spec.occupancy_cap(arch)
            self.remaining = spec.kernel.grid_size(spec.shape)
            self.resident = 0
            self.next_id = 0
            self.finish_cycle = None
            self.sms_used = set()

        def resident_on(self, sm_index: int) -> int:
            return sum(
                1 for cta in sms[sm_index].resident if cta.cta_id // 10**6 == self.tag
            )

    streams = [
        _Stream(tag, spec, allowed)
        for tag, (spec, allowed) in enumerate(tenants)
    ]

    def dispatch() -> None:
        progress = True
        while progress:
            progress = False
            for stream in streams:
                if stream.remaining <= stream.resident:
                    continue
                # least-loaded allowed SM with room under the cap
                best = None
                for index in stream.allowed:
                    if stream.resident_on(index) >= stream.cap:
                        continue
                    if best is None or sms[index].residency < sms[best].residency:
                        best = index
                if best is None:
                    continue
                cta = CTA(
                    cta_id=stream.tag * 10**6 + stream.next_id,
                    work=stream.work,
                )
                stream.next_id += 1
                stream.resident += 1
                stream.sms_used.add(best)
                sms[best].dispatch(cta, now)
                progress = True

    now = 0.0
    dispatch()
    total_remaining = sum(s.remaining for s in streams)
    while total_remaining > 0:
        step = None
        for sm in sms:
            candidate = sm.next_completion_in()
            if candidate is not None and (step is None or candidate < step):
                step = candidate
        if step is None:
            raise RuntimeError("deadlock: work remains but nothing executes")
        for sm in sms:
            for cta in sm.advance(step, now):
                stream = streams[cta.cta_id // 10**6]
                stream.remaining -= 1
                stream.resident -= 1
                total_remaining -= 1
                if stream.remaining == 0:
                    stream.finish_cycle = now + step
        now += step
        dispatch()

    results = tuple(
        TenantResult(
            name=stream.spec.name,
            seconds=arch.cycles_to_seconds(stream.finish_cycle or now),
            grid_size=stream.spec.kernel.grid_size(stream.spec.shape),
            sms_used=len(stream.sms_used),
        )
        for stream in streams
    )
    return SharedRunResult(tenants=results, makespan_s=arch.cycles_to_seconds(now))
