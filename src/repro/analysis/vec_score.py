"""Vectorized candidate scoring for the offline kernel tuner.

:func:`repro.core.offline.kernel_tuning.tune_layer_kernel` walks every
(tile, stair-point) candidate of one layer's GEMM and minimizes the
analytic execution time
(:func:`repro.sim.engine.analytic_kernel_time_s`).  The scalar path
re-enters the closed-form model once per candidate; this module scores
the whole candidate set of one shape in a single numpy array program.

The candidates' shape-free inputs -- tile, block size, K unroll,
spilled words and TLP -- are gathered once into
:class:`CandidateColumns` (the tuner keeps one per GPU), and each
shape's scores are computed from those columns with no Python loop
over candidates.

Bit-exactness with the scalar model is by construction: every element
goes through the *same* operations in the *same* order as the scalar
expressions -- :func:`repro.sim.engine.cta_work`'s integer instruction
counts (exact in int64) and their float conversions, Eq. 4's grid,
``(w / R) * (g + h * max(g / tlp, 1))``, the cycles-to-seconds
division, and the DRAM bandwidth floor via ``np.maximum`` -- and
IEEE-754 arithmetic is deterministic per element, so
``batched_kernel_scores(...)[i]`` equals the scalar
``analytic_kernel_time_s`` for candidate ``i`` bit for bit
(differentially tested in ``tests/sim/test_vec_equivalence.py``).
That makes the tuner's winner identical too: ``np.argmin`` returns
the first minimum, exactly like the scalar loop's strict ``<``
best-so-far update.

Validation reuses the scalar model's error messages verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import (
    ADDRESS_INSTS_PER_LOAD,
    LOADS_PER_ELEMENT,
    LOOP_OVERHEAD_PER_KSTEP,
    GemmShape,
    SgemmKernel,
)
from repro.gpu.libraries import KernelLibrary
from repro.gpu.spilling import ACCESSES_PER_SPILL, COST_GLOBAL, COST_SHARED
from repro.sim.sm import DEFAULT_TLP_HALF

__all__ = [
    "CandidateColumns",
    "batched_kernel_scores",
    "candidate_columns",
    "column_scores",
]


@dataclass(frozen=True, eq=False)
class CandidateColumns:
    """The shape-free inputs of every (kernel, TLP) candidate, one
    int64 array per field, in candidate order."""

    tile_m: np.ndarray
    tile_n: np.ndarray
    block_size: np.ndarray
    k_unroll: np.ndarray
    spill_shared_words: np.ndarray
    spill_global_words: np.ndarray
    tlp: np.ndarray


def candidate_columns(
    kernels: Sequence[SgemmKernel], tlps: Sequence[int]
) -> CandidateColumns:
    """Gather ``kernels[i]`` at residency ``tlps[i]`` into columns."""
    if len(kernels) != len(tlps):
        raise ValueError(
            "kernels and tlps lengths differ: %d vs %d"
            % (len(kernels), len(tlps))
        )

    def column(values) -> np.ndarray:
        return np.fromiter(values, dtype=np.int64, count=len(kernels))

    tlp = column(tlps)
    if np.any(tlp < 1):
        raise ValueError("kernel does not fit: occupancy limit is 0")
    return CandidateColumns(
        tile_m=column(kernel.tile_m for kernel in kernels),
        tile_n=column(kernel.tile_n for kernel in kernels),
        block_size=column(kernel.block_size for kernel in kernels),
        k_unroll=column(kernel.k_unroll for kernel in kernels),
        spill_shared_words=column(
            kernel.spilled_bytes_shared // 4 for kernel in kernels
        ),
        spill_global_words=column(
            kernel.spilled_bytes_global // 4 for kernel in kernels
        ),
        tlp=tlp,
    )


def column_scores(
    arch: GPUArchitecture,
    columns: CandidateColumns,
    shape: GemmShape,
    library: Optional[KernelLibrary] = None,
    n_sms: Optional[int] = None,
) -> np.ndarray:
    """Analytic execution time of every candidate in ``columns`` over
    ``shape``, as a float64 array in candidate order."""
    if n_sms is None:
        n_sms = arch.n_sms
    if not 1 <= n_sms <= arch.n_sms:
        raise ValueError(
            "n_sms must be in [1, %d], got %r" % (arch.n_sms, n_sms)
        )
    tile_m, tile_n = columns.tile_m, columns.tile_n
    block_size = columns.block_size
    k = shape.k_depth
    # cta_work, element for element.
    k_steps = np.ceil(k / columns.k_unroll).astype(np.int64)
    eff_m = np.minimum(tile_m, shape.m_rows)
    eff_n = np.minimum(tile_n, shape.n_cols)
    operand_elements = (eff_m + eff_n) * k
    results = eff_m * eff_n
    spill_accesses = ACCESSES_PER_SPILL * k_steps * block_size
    global_insts = (
        operand_elements
        + results
        + columns.spill_global_words * spill_accesses
    )
    shared_insts = (
        operand_elements + columns.spill_shared_words * spill_accesses
    )
    other = (
        (tile_m + tile_n) * k * LOADS_PER_ELEMENT * ADDRESS_INSTS_PER_LOAD
        + k_steps * block_size * LOOP_OVERHEAD_PER_KSTEP
    )
    ffma = (tile_m * tile_n * k).astype(np.float64)
    weighted = (
        ffma + shared_insts * COST_SHARED + global_insts * COST_GLOBAL + other
    )
    dram_bytes = 4.0 * global_insts
    # Eq. 4.
    grid = (
        np.ceil(shape.m_rows / tile_m).astype(np.int64)
        * np.ceil(shape.n_cols / tile_n).astype(np.int64)
    )
    # analytic_kernel_time_s.
    issue_eff = library.issue_efficiency if library else 1.0
    overhead = library.transform_overhead if library else 1.0
    peak_rate = arch.cores_per_sm * issue_eff
    g = grid / n_sms
    cycles = (weighted / peak_rate) * (
        g + DEFAULT_TLP_HALF * np.maximum(g / columns.tlp, 1.0)
    )
    seconds = arch.cycles_to_seconds(cycles * overhead)
    bandwidth_floor = dram_bytes * grid / arch.mem_bandwidth_bytes_per_s
    return np.maximum(seconds, bandwidth_floor)


def batched_kernel_scores(
    arch: GPUArchitecture,
    kernels: Sequence[SgemmKernel],
    tlps: Sequence[int],
    shape: GemmShape,
    library: Optional[KernelLibrary] = None,
    n_sms: Optional[int] = None,
) -> np.ndarray:
    """Analytic execution time of every candidate, one array program.

    ``kernels[i]`` is scored at residency ``tlps[i]`` over ``shape``;
    the return value is a float64 array with
    ``scores[i] == analytic_kernel_time_s(arch, kernels[i], shape,
    library=library, tlp=tlps[i], n_sms=n_sms)`` bit for bit.
    """
    return column_scores(
        arch, candidate_columns(kernels, tlps), shape, library, n_sms
    )
