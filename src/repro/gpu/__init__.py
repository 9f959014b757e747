"""GPU substrate: microarchitecture models, SGEMM kernels, occupancy,
libraries, register spilling, memory footprints and the energy model.

This package supplies every architecture-side quantity the P-CNN
framework's analytical models consume (paper Eqs. 3-13).
"""

from repro.gpu.architecture import (
    ARCHITECTURES,
    GTX_1080,
    GTX_970M,
    JETSON_TX1,
    JETSON_TX2,
    K20C,
    TITAN_X,
    GPUArchitecture,
    get_architecture,
    list_architectures,
)
from repro.gpu.energy import PowerState, energy_j, power_draw_w
from repro.gpu.kernels import (
    COMMON_TILES,
    GemmShape,
    SgemmKernel,
    grid_size,
    make_kernel,
)
from repro.gpu.libraries import (
    CUBLAS,
    CUDNN,
    LIBRARIES,
    NERVANA,
    KernelLibrary,
    get_library,
)
from repro.gpu.memory import (
    MemoryFootprint,
    NetworkMemoryProfile,
    OutOfMemoryError,
    estimate_footprint,
    fits_in_memory,
    usable_memory_bytes,
)
from repro.gpu.spilling import SpillPlan, plan_spill, spill_cost, stair_points

__all__ = [
    "ARCHITECTURES",
    "GPUArchitecture",
    "GTX_970M",
    "GTX_1080",
    "JETSON_TX1",
    "JETSON_TX2",
    "K20C",
    "TITAN_X",
    "get_architecture",
    "list_architectures",
    "COMMON_TILES",
    "GemmShape",
    "SgemmKernel",
    "grid_size",
    "make_kernel",
    "CUBLAS",
    "CUDNN",
    "LIBRARIES",
    "NERVANA",
    "KernelLibrary",
    "get_library",
    "MemoryFootprint",
    "NetworkMemoryProfile",
    "OutOfMemoryError",
    "estimate_footprint",
    "fits_in_memory",
    "usable_memory_bytes",
    "PowerState",
    "energy_j",
    "power_draw_w",
    "SpillPlan",
    "plan_spill",
    "spill_cost",
    "stair_points",
]
