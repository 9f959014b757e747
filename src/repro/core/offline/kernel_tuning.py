"""Coordinated kernel fine-tuning (paper Section IV.B.2, Eqs. 7-10).

P-CNN does not take a library's kernel as given: for each conv layer it
jointly tunes the **sub-matrix size** and the **registers per thread**.
The search space is pruned to Fig. 9's stair points -- for each
attainable TLP only the design with the most registers survives -- and
each candidate is scored.

Two scores are provided:

* :func:`s_kernel` -- the paper's literal Eq. 10,
  ``(1 - rEC) * Spill_cost * nInvocations``.  As written it collapses
  to zero whenever the tile divides the matrix exactly (rEC = 1) or
  nothing spills, so it can only *rank* candidates that waste something.
* :func:`kernel_score` -- the robust objective the tuner actually
  minimizes: the analytic execution time of the candidate at its TLP,
  which prices the same three effects (padding waste, spill traffic,
  wave count) without the degenerate zeros.  Tests assert the two agree
  on the paper's qualitative claims; the ablation bench compares them.

The tuned kernels execute through the :data:`PCNN_BACKEND` pseudo
library (hand-tuned-quality issue efficiency, minimal layout overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu import occupancy
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import COMMON_TILES, GemmShape, SgemmKernel, make_kernel
from repro.gpu.libraries import KernelLibrary
from repro.gpu.spilling import (
    SpillPlan,
    apply_spill,
    plan_spill,
    spill_cost,
    stair_points,
)
from repro.sim.engine import analytic_kernel_time_s

if TYPE_CHECKING:  # repro.analysis imports this module back
    from repro.analysis.vec_score import CandidateColumns

__all__ = [
    "PCNN_BACKEND",
    "TunedKernel",
    "TuningCandidates",
    "candidate_kernels",
    "s_kernel",
    "kernel_score",
    "pick_tuned_kernel",
    "tune_layer_kernel",
    "tuning_candidates",
]

#: The back-end quality P-CNN's offline-compiled kernels achieve:
#: hand-tuned issue rates (like Nervana's SASS kernels) with only a
#: small data-layout overhead, no batching constraint.
PCNN_BACKEND = KernelLibrary(
    name="pcnn",
    issue_efficiency=0.90,
    transform_overhead=1.05,
    workspace_policy="per_image",
    catalog={},
)


@dataclass(frozen=True)
class TunedKernel:
    """One layer's tuned kernel: the offline compiler's output unit.

    ``kernel`` already carries its spill placement; ``tlp`` is the
    paper's optTLP (the residency the score was minimized at).
    """

    kernel: SgemmKernel
    tlp: int
    spill: SpillPlan
    score: float
    s_kernel_value: float

    @property
    def tile(self) -> Tuple[int, int]:
        """(tile_m, tile_n)."""
        return self.kernel.tile


@dataclass(frozen=True)
class TuningCandidates:
    """Every design the tuner scores for one GPU: each candidate tile
    at each of its stair points, with its spill plan applied.

    Nothing here depends on the layer, so one set serves every GEMM
    shape tuned on the architecture; ``columns`` holds the candidates'
    scoring inputs as arrays, gathered once for every shape's sweep.
    """

    kernels: Tuple[SgemmKernel, ...]
    tlps: Tuple[int, ...]
    spills: Tuple[SpillPlan, ...]
    columns: "CandidateColumns"


def _block_size_for(tile_m: int, tile_n: int) -> int:
    """Thread-block size heuristic: one thread per ~64 tile outputs,
    clamped to [64, 256] (matches the library kernels of Table IV)."""
    return max(64, min(256, (tile_m * tile_n) // 64))


def candidate_kernels(
    arch: GPUArchitecture, tiles: Sequence[Tuple[int, int]] = COMMON_TILES
) -> List[SgemmKernel]:
    """Synthesize the tile candidates the tuner explores.

    Includes the transposed orientation of rectangular tiles (a 128x64
    tile can map either result dimension to its long side).
    """
    seen = set()
    kernels: List[SgemmKernel] = []
    for tile_m, tile_n in tiles:
        for m, n in ((tile_m, tile_n), (tile_n, tile_m)):
            if (m, n) in seen:
                continue
            seen.add((m, n))
            kernel = make_kernel(m, n, block_size=_block_size_for(m, n))
            # Skip tiles whose shared-memory tile cannot even fit once.
            if kernel.shared_mem_bytes > arch.shared_mem_per_sm:
                continue
            kernels.append(kernel)
    return kernels


def s_kernel(
    arch: GPUArchitecture,
    kernel: SgemmKernel,
    shape: GemmShape,
    tlp: int,
    spill: SpillPlan,
) -> float:
    """The paper's literal Eq. 10:
    ``S_kernel = (1 - rEC) * Spill_cost * nInvocations``."""
    rec = occupancy.effective_computation_ratio(
        shape, kernel.tile_m, kernel.tile_n
    )
    cost = spill_cost(kernel, spill, shape.k_depth)
    waves = occupancy.n_invocations(arch, kernel, shape, tlp)
    return (1.0 - rec) * cost * waves


def kernel_score(
    arch: GPUArchitecture,
    kernel: SgemmKernel,
    shape: GemmShape,
    tlp: int,
    backend: KernelLibrary = PCNN_BACKEND,
) -> float:
    """Robust tuning objective: analytic execution time at ``tlp``.

    Lower is better.  Prices exactly Eq. 10's three effects -- padding
    waste is in the grid size, spill traffic is in the CTA work, the
    wave count is Eq. 8 -- without Eq. 10's degenerate zeros.
    """
    return analytic_kernel_time_s(
        arch, kernel, shape, library=backend, tlp=tlp, n_sms=arch.n_sms
    )


def tuning_candidates(
    arch: GPUArchitecture,
    tiles: Optional[Sequence[Tuple[int, int]]] = None,
) -> TuningCandidates:
    """The shape-free half of coordinated fine-tuning.

    For every candidate tile, walk Fig. 9's stair points (TLP,
    registers) and build the spill plan (spare shared memory first,
    then global -- Section IV.B.2).
    """
    # cycle-breaker: repro.analysis pulls repro.core.engine at
    # package init (profiling), which imports this module back.
    from repro.analysis.vec_score import candidate_columns

    candidates = candidate_kernels(arch, tiles or COMMON_TILES)
    if not candidates:
        raise ValueError("no candidate kernel fits on %s" % (arch.name,))
    kernels: List[SgemmKernel] = []
    tlps: List[int] = []
    spills: List[SpillPlan] = []
    for base in candidates:
        for tlp, regs in stair_points(arch, base):
            spill = plan_spill(arch, base, regs, tlp)
            kernels.append(apply_spill(base, spill))
            tlps.append(tlp)
            spills.append(spill)
    return TuningCandidates(
        tuple(kernels),
        tuple(tlps),
        tuple(spills),
        candidate_columns(kernels, tlps),
    )


def pick_tuned_kernel(
    arch: GPUArchitecture,
    candidates: TuningCandidates,
    shape: GemmShape,
    backend: KernelLibrary = PCNN_BACKEND,
) -> TunedKernel:
    """The per-shape half: keep the candidate with the smallest
    :func:`kernel_score` on ``shape``.  Its TLP is the paper's optTLP."""
    # cycle-breaker: repro.analysis pulls repro.core.engine at
    # package init (profiling), which imports this module back.
    from repro.analysis.vec_score import column_scores

    # One vectorized scoring sweep per shape instead of one analytic
    # model entry per candidate; scores are bit-identical to the
    # scalar kernel_score, and argmin's first-minimum tie-break
    # matches the old loop's strict ``<`` best-so-far update.
    scores = column_scores(arch, candidates.columns, shape, library=backend)
    index = int(np.argmin(scores))
    winner = candidates.kernels[index]
    tlp = candidates.tlps[index]
    spill = candidates.spills[index]
    return TunedKernel(
        kernel=winner,
        tlp=tlp,
        spill=spill,
        score=float(scores[index]),
        s_kernel_value=s_kernel(arch, winner, shape, tlp, spill),
    )


def tune_layer_kernel(
    arch: GPUArchitecture,
    shape: GemmShape,
    tiles: Optional[Sequence[Tuple[int, int]]] = None,
    backend: KernelLibrary = PCNN_BACKEND,
) -> TunedKernel:
    """Coordinated fine-tuning for one layer's GEMM: score every
    design of :func:`tuning_candidates` on ``shape`` and keep the best
    (:func:`pick_tuned_kernel`)."""
    return pick_tuned_kernel(
        arch, tuning_candidates(arch, tiles), shape, backend
    )
