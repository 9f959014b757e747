"""SGEMM kernel descriptors.

Convolutional layers are lowered to single-precision matrix multiply
(SGEMM) via im2col (paper Section II.A, Fig. 2).  The SGEMM algorithm
follows Volkov & Demmel: the M x N result matrix is divided into m x n
*sub-matrices* (tiles), one tile per thread block (CTA).  A kernel is
therefore characterized by its tile, its thread-block size, its register
consumption per thread and its shared-memory footprint -- exactly the
columns of the paper's Table IV.

This module provides :class:`SgemmKernel` (the descriptor), Eq. 4's grid
size, the per-CTA work/instruction-mix model used by Fig. 6's
"computation density" characterization, and heuristics
(:func:`estimate_registers_per_thread`,
:func:`estimate_shared_mem_bytes`) that the offline kernel tuner uses to
synthesize candidate kernels for tiles that no library ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "SgemmKernel",
    "GemmShape",
    "grid_size",
    "estimate_registers_per_thread",
    "estimate_shared_mem_bytes",
    "make_kernel",
    "COMMON_TILES",
]

#: Tile shapes the paper lists as common for CNN SGEMM (Section IV.B.2),
#: plus the library tiles observed in Table IV.
COMMON_TILES = ((128, 128), (128, 64), (128, 32), (64, 64), (32, 32))

#: Elements of the K dimension staged through shared memory per tile
#: iteration (the kernel's K-unroll depth).
DEFAULT_K_UNROLL = 8

#: Instruction-overhead constants for the per-CTA instruction-mix model.
#: Calibrated so the computation-density ordering of Fig. 6 holds:
#: density grows with tile size because FFMA count scales with m*n while
#: memory traffic scales with m+n.
LOADS_PER_ELEMENT = 1.0
ADDRESS_INSTS_PER_LOAD = 2.0
LOOP_OVERHEAD_PER_KSTEP = 4.0


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of one SGEMM: C[M x N] = A[M x K] @ B[K x N].

    For a convolutional layer lowered through im2col (Fig. 2):

    * ``m_rows`` = number of filters per group (N_f / groups),
    * ``k_depth`` = S_f^2 * N_c / groups (receptive-field volume),
    * ``n_cols`` = W_o * H_o * batch (output pixels, batch-folded).
    """

    m_rows: int
    n_cols: int
    k_depth: int

    def __post_init__(self) -> None:
        for name in ("m_rows", "n_cols", "k_depth"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError("%s must be positive, got %r" % (name, value))

    @property
    def flops(self) -> float:
        """FLOPs of this GEMM: one multiply-accumulate = 2 FLOPs."""
        return 2.0 * self.m_rows * self.n_cols * self.k_depth

    def scaled_columns(self, n_cols: int) -> "GemmShape":
        """Return a copy with a different column count (batch/perforation)."""
        return GemmShape(self.m_rows, n_cols, self.k_depth)


def grid_size(shape: GemmShape, tile_m: int, tile_n: int) -> int:
    """Number of CTAs launched for a GEMM: Eq. 4 of the paper.

    ``GridSize = ceil(M / m) * ceil(N / n)``
    """
    if tile_m <= 0 or tile_n <= 0:
        raise ValueError("tile dimensions must be positive")
    return math.ceil(shape.m_rows / tile_m) * math.ceil(shape.n_cols / tile_n)


def estimate_registers_per_thread(
    tile_m: int, tile_n: int, block_size: int, k_unroll: int = DEFAULT_K_UNROLL
) -> int:
    """Heuristic register budget of a tile's SGEMM inner loop.

    Each thread owns ``tile_m * tile_n / block_size`` accumulators, plus
    double-buffered operand fragments and ~24 addressing/loop registers.
    The heuristic reproduces the 120-register cuBLAS 128x64 kernel of
    Table IV; observed library kernels keep their catalog values and this
    is only used to synthesize candidate kernels for unexplored tiles.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    accumulators = math.ceil(tile_m * tile_n / block_size)
    fragments = math.ceil((tile_m + tile_n) * k_unroll / block_size) * 2
    bookkeeping = 32
    return min(255, accumulators + fragments + bookkeeping)


def estimate_shared_mem_bytes(
    tile_m: int, tile_n: int, k_unroll: int = DEFAULT_K_UNROLL
) -> int:
    """Heuristic shared-memory footprint of a tile's SGEMM.

    Double-buffered A and B tiles of depth ``k_unroll`` in fp32, plus 256
    bytes of padding to dodge bank conflicts.  Reproduces the 12544-byte
    cuBLAS 128x64 kernel (k_unroll=8) and the 2304-byte cuDNN 32x32
    kernel (k_unroll=4) of Table IV.
    """
    return 2 * (tile_m + tile_n) * k_unroll * 4 + 256


@dataclass(frozen=True)
class SgemmKernel:
    """A concrete SGEMM kernel variant (one row of Table IV).

    Attributes
    ----------
    name:
        Identifier, e.g. ``"cublas_sgemm_128x64"``.
    tile_m, tile_n:
        Sub-matrix (tile) dimensions; one tile per CTA.
    block_size:
        Threads per CTA.
    regs_per_thread:
        Registers consumed per thread (Table IV's ``Register`` column).
        The dominant occupancy limiter for SGEMM (Eq. 5).
    shared_mem_bytes:
        Static shared memory per CTA (Table IV's ``Shared Memory``).
    k_unroll:
        K-depth staged per shared-memory tile iteration.
    spilled_bytes_shared / spilled_bytes_global:
        Per-thread bytes of spilled registers placed in (spare) shared
        memory and in global memory by the register-spilling tuner
        (:mod:`repro.gpu.spilling`).  Zero for pristine library kernels.
    """

    name: str
    tile_m: int
    tile_n: int
    block_size: int
    regs_per_thread: int
    shared_mem_bytes: int
    k_unroll: int = DEFAULT_K_UNROLL
    spilled_bytes_shared: int = 0
    spilled_bytes_global: int = 0

    def __post_init__(self) -> None:
        if self.tile_m <= 0 or self.tile_n <= 0:
            raise ValueError("tile dimensions must be positive")
        if self.block_size <= 0 or self.block_size % 32:
            raise ValueError(
                "block_size must be a positive multiple of the warp size, "
                "got %r" % (self.block_size,)
            )
        if not 1 <= self.regs_per_thread <= 255:
            raise ValueError(
                "regs_per_thread must be in [1, 255], got %r"
                % (self.regs_per_thread,)
            )
        if self.shared_mem_bytes < 0:
            raise ValueError("shared_mem_bytes must be non-negative")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def tile(self) -> tuple:
        """(tile_m, tile_n) pair."""
        return (self.tile_m, self.tile_n)

    @property
    def tile_elements(self) -> int:
        """Output elements computed per CTA."""
        return self.tile_m * self.tile_n

    @property
    def outputs_per_thread(self) -> int:
        """Accumulators per thread."""
        return math.ceil(self.tile_elements / self.block_size)

    def grid_size(self, shape: GemmShape) -> int:
        """Eq. 4: CTAs launched for ``shape``."""
        return grid_size(shape, self.tile_m, self.tile_n)

    # ------------------------------------------------------------------
    # Per-CTA work / instruction mix (Fig. 6's characterization)
    # ------------------------------------------------------------------
    def ffma_per_cta(self, k_depth: int) -> float:
        """Fused multiply-add instructions one CTA executes.

        Each of the tile's m*n outputs accumulates over the K dimension;
        instructions are spread over ``block_size`` threads but the mix
        ratios are CTA-level so we count totals.
        """
        return float(self.tile_elements * k_depth)

    def memory_insts_per_cta(self, k_depth: int) -> float:
        """Load/store instructions one CTA executes.

        Tile operands: (m + n) elements per K step staged through shared
        memory (a global load plus a shared store plus shared reloads),
        then the m*n results stored once.  Spilled registers add one
        shared or global access per spilled word per K step.
        """
        operand_loads = (self.tile_m + self.tile_n) * k_depth * LOADS_PER_ELEMENT
        shared_traffic = operand_loads  # staging stores + reloads, amortized
        result_stores = self.tile_elements
        spill_words = (self.spilled_bytes_shared + self.spilled_bytes_global) / 4.0
        k_steps = math.ceil(k_depth / self.k_unroll)
        spill_traffic = spill_words * self.block_size * k_steps
        return operand_loads + shared_traffic + result_stores + spill_traffic

    def other_insts_per_cta(self, k_depth: int) -> float:
        """Address arithmetic, predicates and loop control per CTA."""
        loads = (self.tile_m + self.tile_n) * k_depth * LOADS_PER_ELEMENT
        k_steps = math.ceil(k_depth / self.k_unroll)
        return (
            loads * ADDRESS_INSTS_PER_LOAD
            + k_steps * self.block_size * LOOP_OVERHEAD_PER_KSTEP
        )

    def total_insts_per_cta(self, k_depth: int) -> float:
        """All instructions one CTA executes."""
        return (
            self.ffma_per_cta(k_depth)
            + self.memory_insts_per_cta(k_depth)
            + self.other_insts_per_cta(k_depth)
        )

    def computation_density(self, k_depth: int) -> float:
        """Fraction of instructions that are floating point (Fig. 6).

        Bigger tiles amortize operand traffic over more FFMAs, so density
        increases with tile size -- the paper's argument for why cuDNN's
        small 32x32 tile on TX1 loses to cuBLAS despite better occupancy.
        """
        total = self.total_insts_per_cta(k_depth)
        if total == 0:
            return 0.0
        return self.ffma_per_cta(k_depth) / total

    def ffma_fraction(self, k_depth: int) -> float:
        """Alias of :meth:`computation_density` (Eq. 12's FFMA/Total)."""
        return self.computation_density(k_depth)

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_registers(self, regs_per_thread: int) -> "SgemmKernel":
        """Return a copy with a different register budget (no spilling
        bookkeeping -- use :mod:`repro.gpu.spilling` for that)."""
        return replace(self, regs_per_thread=regs_per_thread)

    def with_spilling(
        self, regs_per_thread: int, spilled_shared: int, spilled_global: int
    ) -> "SgemmKernel":
        """Return a copy re-tuned to ``regs_per_thread`` with the given
        per-thread spill placement (bytes)."""
        return replace(
            self,
            regs_per_thread=regs_per_thread,
            spilled_bytes_shared=spilled_shared,
            spilled_bytes_global=spilled_global,
        )

    def describe(self) -> str:
        """One-line summary in Table IV column order."""
        return (
            "%s: tile %dx%d, block %d, %d regs/thread, %d B shmem"
            % (
                self.name,
                self.tile_m,
                self.tile_n,
                self.block_size,
                self.regs_per_thread,
                self.shared_mem_bytes,
            )
        )


def make_kernel(
    tile_m: int,
    tile_n: int,
    block_size: int = 256,
    k_unroll: int = DEFAULT_K_UNROLL,
    name: str = "",
) -> SgemmKernel:
    """Synthesize a plausible SGEMM kernel for an arbitrary tile.

    Used by the offline tuner to explore tiles outside the library
    catalogs; register and shared-memory budgets come from the
    calibrated heuristics above.
    """
    kernel_name = name or "sgemm_%dx%d_b%d" % (tile_m, tile_n, block_size)
    return SgemmKernel(
        name=kernel_name,
        tile_m=tile_m,
        tile_n=tile_n,
        block_size=block_size,
        regs_per_thread=estimate_registers_per_thread(
            tile_m, tile_n, block_size, k_unroll
        ),
        shared_mem_bytes=estimate_shared_mem_bytes(tile_m, tile_n, k_unroll),
        k_unroll=k_unroll,
    )
