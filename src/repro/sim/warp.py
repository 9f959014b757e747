"""Warp-level issue simulation: deriving the latency-hiding curve.

The CTA-level model of :mod:`repro.sim.sm` *assumes* a saturating
residency curve ``rate(t) = peak * t / (t + h)`` with ``h = 1`` CTA.
This module derives that curve from first principles with a small
warp-level simulation of the Table VI configuration (32-thread warps,
a greedy-then-oldest (GTO) warp scheduler, single-issue SM front end):

* each warp executes an instruction stream mixing compute ops
  (pipeline latency ~10 cycles) and memory ops (DRAM latency ~300
  cycles) in the kernel's instruction-mix proportions;
* the scheduler issues from the current warp until it stalls on a
  dependency (GTO), then switches to the oldest ready warp;
* achieved IPC over a long window, swept over the resident warp count,
  is the latency-hiding curve.

:func:`fit_tlp_half` least-squares-fits ``t/(t+h)`` to the simulated
curve; the validation test checks the CTA-level default ``h = 1`` CTA
(= ``block/32`` warps at that block size) falls inside the band the
warp simulation produces for SGEMM-like instruction mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.obs.metrics import ordered_sum

__all__ = [
    "WarpIssueConfig",
    "simulate_issue_efficiency",
    "hiding_curve",
    "fit_tlp_half",
]

#: Pipeline latency of an arithmetic instruction (cycles).
COMPUTE_LATENCY = 10

#: Latency of a global-memory instruction (cycles).
MEMORY_LATENCY = 300


@dataclass(frozen=True)
class WarpIssueConfig:
    """Instruction-stream statistics of one kernel's warps.

    ``memory_fraction`` is the share of issued instructions that go to
    global memory; ``ilp`` is the number of back-to-back independent
    instructions a warp can issue before hitting a dependency on an
    outstanding result (SGEMM's unrolled FFMA chains give ~4-8).
    """

    memory_fraction: float = 0.06
    ilp: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.memory_fraction <= 1.0:
            raise ValueError("memory_fraction must be in [0, 1]")
        if self.ilp < 1:
            raise ValueError("ilp must be >= 1")


def simulate_issue_efficiency(
    n_warps: int,
    config: WarpIssueConfig = WarpIssueConfig(),
    horizon_cycles: int = 20000,
) -> float:
    """Fraction of cycles the SM issues with ``n_warps`` resident.

    Deterministic GTO simulation: a warp issues ``ilp`` instructions
    (one per cycle), then stalls until the latency of the oldest of
    those instructions expires; every ``1/memory_fraction``-th
    instruction is a memory op.  The scheduler prefers the current
    warp, falling back to the oldest ready one.
    """
    if n_warps < 1:
        raise ValueError("n_warps must be >= 1")
    period = max(1, round(1.0 / config.memory_fraction)) if config.memory_fraction else 0

    ready_at = [0] * n_warps  # cycle at which each warp can issue again
    issued_count = [0] * n_warps
    burst_left = [config.ilp] * n_warps
    issued_total = 0
    current = 0
    cycle = 0
    while cycle < horizon_cycles:
        # GTO: stick with `current` if it can issue, else oldest ready.
        candidate = None
        if ready_at[current] <= cycle:
            candidate = current
        else:
            best_ready = None
            for w in range(n_warps):
                if ready_at[w] <= cycle and (
                    best_ready is None or ready_at[w] < ready_at[best_ready]
                ):
                    best_ready = w
            candidate = best_ready
        if candidate is None:
            # Nothing ready: fast-forward to the next wake-up.
            cycle = min(ready_at)
            continue
        current = candidate
        issued_total += 1
        issued_count[current] += 1
        is_memory = period and issued_count[current] % period == 0
        burst_left[current] -= 1
        if burst_left[current] <= 0 or is_memory:
            latency = MEMORY_LATENCY if is_memory else COMPUTE_LATENCY
            ready_at[current] = cycle + latency
            burst_left[current] = config.ilp
        cycle += 1
    return issued_total / horizon_cycles


def hiding_curve(
    max_warps: int = 32,
    config: WarpIssueConfig = WarpIssueConfig(),
) -> List[Tuple[int, float]]:
    """(resident warps, issue efficiency) over the residency sweep."""
    if max_warps < 1:
        raise ValueError("max_warps must be >= 1")
    return [
        (w, simulate_issue_efficiency(w, config))
        for w in range(1, max_warps + 1)
    ]


def fit_tlp_half(
    curve: Sequence[Tuple[int, float]], warps_per_cta: int = 8
) -> float:
    """Least-squares fit of ``eff(t) = t / (t + h)`` in *CTA* units.

    ``warps_per_cta`` converts the warp-residency axis to CTAs (a
    256-thread block is 8 warps).  Closed form: for each point,
    ``h_i = t_i (1 - e_i) / e_i``; the fit is the efficiency-weighted
    mean of the per-point estimates.
    """
    if warps_per_cta < 1:
        raise ValueError("warps_per_cta must be >= 1")
    estimates = []
    weights = []
    for warps, eff in curve:
        if eff <= 0.0 or eff >= 1.0:
            continue
        t_ctas = warps / warps_per_cta
        estimates.append(t_ctas * (1.0 - eff) / eff)
        weights.append(eff)
    if not estimates:
        raise ValueError("curve has no fittable points")
    total = ordered_sum(weights)
    return ordered_sum(h * w for h, w in zip(estimates, weights)) / total
