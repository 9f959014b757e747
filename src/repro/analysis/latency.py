"""Library-level network latency model (Table III / Figs. 4-5).

Predicts the end-to-end latency of running a CNN through one of the
characterized back-ends (cuBLAS / cuDNN / Nervana) on a given GPU: each
conv and classifier layer runs the kernel the library would select, at
the kernel's natural occupancy, through the analytic execution model;
the library's batch constraints and the memory model's OOM verdicts
(Table III's 'x' cells) are applied first.

This is the characterization-side counterpart of the P-CNN compiler
(which tunes its own kernels instead of taking a library's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.gpu import occupancy
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import GemmShape
from repro.gpu.libraries import KernelLibrary
from repro.gpu.memory import OutOfMemoryError, fits_in_memory
from repro.nn.layers import ConvSpec, DenseSpec
from repro.nn.models import NetworkDescriptor
from repro.obs.metrics import ordered_sum
from repro.sim.engine import analytic_kernel_time_s

__all__ = ["LayerLatency", "NetworkLatency", "library_network_latency"]

#: Fixed cost of one kernel launch (driver + setup).  Caffe's cuBLAS
#: path lowers convolutions image-by-image through a shared im2col
#: buffer, so its launch count scales with the batch -- the reason the
#: paper's Table III shows cuBLAS falling far behind cuDNN on the
#: 57-convolution GoogLeNet while staying competitive on AlexNet.
LAUNCH_OVERHEAD_S = 25e-6


@dataclass(frozen=True)
class LayerLatency:
    """One layer's predicted latency under a library."""

    name: str
    kernel: str
    grid_size: int
    seconds: float
    flops: float


@dataclass(frozen=True)
class NetworkLatency:
    """Whole-network latency breakdown under a library."""

    network: str
    arch: str
    library: str
    batch: int
    layers: List[LayerLatency]
    aux_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end latency for the whole batch."""
        return ordered_sum(layer.seconds for layer in self.layers) + self.aux_seconds

    @property
    def throughput_ips(self) -> float:
        """Images per second."""
        return self.batch / self.total_seconds

    def layer_named(self, name: str) -> LayerLatency:
        """Look up one layer."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError("no layer %r" % (name,))


def library_network_latency(
    arch: GPUArchitecture,
    network: NetworkDescriptor,
    library: KernelLibrary,
    batch: int,
    check_memory: bool = True,
) -> NetworkLatency:
    """Predict network latency through a library back-end.

    Raises :class:`~repro.gpu.memory.OutOfMemoryError` for Table III's
    'x' configurations (after the library's batch rounding).
    """
    effective = library.effective_batch(batch)
    if check_memory and not fits_in_memory(
        arch, network.memory_profile(), library, effective
    ):
        raise OutOfMemoryError(
            "%s batch %d via %s does not fit on %s"
            % (network.name, effective, library.name, arch.name)
        )
    layers: List[LayerLatency] = []
    aux = 0.0
    for layer in network.layers:
        spec = layer.spec
        if isinstance(spec, ConvSpec):
            shape = network.gemm_shape(layer, effective)
            kernel = library.select_kernel(arch, shape)
            tlp = occupancy.ctas_per_sm(arch, kernel)
            # Image-by-image lowering (Caffe/cuBLAS) launches one GEMM
            # per image per group; the GEMM *throughput* pipelines to
            # the batched rate, but every launch pays the fixed cost.
            if library.workspace_policy == "per_image":
                launches = effective * spec.groups
            else:
                launches = spec.groups
            seconds = (
                analytic_kernel_time_s(arch, kernel, shape, library=library, tlp=tlp)
                * spec.groups
                + launches * LAUNCH_OVERHEAD_S
            )
            layers.append(
                LayerLatency(
                    name=spec.name,
                    kernel=kernel.name,
                    grid_size=kernel.grid_size(shape),
                    seconds=seconds,
                    flops=layer.flops * effective,
                )
            )
        elif isinstance(spec, DenseSpec):
            shape = GemmShape(
                m_rows=spec.units,
                n_cols=effective,
                k_depth=layer.input_shape.elements,
            )
            kernel = library.select_kernel(arch, shape)
            tlp = occupancy.ctas_per_sm(arch, kernel)
            seconds = (
                analytic_kernel_time_s(arch, kernel, shape, library=library, tlp=tlp)
                + LAUNCH_OVERHEAD_S
            )
            layers.append(
                LayerLatency(
                    name=spec.name,
                    kernel=kernel.name,
                    grid_size=kernel.grid_size(shape),
                    seconds=seconds,
                    flops=layer.flops * effective,
                )
            )
        else:
            touched = (
                layer.input_shape.elements + layer.output_shape.elements
            ) * effective * 4.0
            aux += touched / arch.mem_bandwidth_bytes_per_s
    return NetworkLatency(
        network=network.name,
        arch=arch.name,
        library=library.name,
        batch=effective,
        layers=layers,
        aux_seconds=aux,
    )
