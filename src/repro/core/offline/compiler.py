"""Cross-platform offline compilation (paper Section IV.B, Fig. 10 left).

The compiler turns (network, GPU, user requirement) into a
:class:`CompiledPlan`: per-layer tuned kernels with their optTLP /
optSM scheduling configuration, a chosen batch size and a predicted
response time.  The pipeline is the paper's:

1. **batch selection** -- background tasks get the throughput-optimal
   batch, latency-bound tasks get ``T * data_rate``;
2. **kernel optimization** -- coordinated sub-matrix / register tuning
   per layer (:mod:`repro.core.offline.kernel_tuning`);
3. **global decision** -- the resource model picks optSM (Eq. 11), the
   time model predicts T (Eq. 12); if T exceeds the budget the batch
   shrinks by Eq. 13 and the loop repeats.

Dense (fully-connected) layers are compiled as GEMMs too -- at batch 1
they are bandwidth-bound on mobile parts and contribute a visible slice
of AlexNet's latency.  Pool/softmax layers are priced with a
bandwidth-bound estimate.  A :class:`~repro.nn.perforation.PerforationPlan`
shrinks the GEMM column counts, which is how the run-time accuracy
tuner re-invokes the compiler to build each tuning table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.offline import batch_selection
from repro.core.offline.kernel_tuning import (
    PCNN_BACKEND,
    TunedKernel,
    TuningCandidates,
    pick_tuned_kernel,
    tuning_candidates,
)
from repro.core.offline.resource_model import opt_sm
from repro.core.offline.time_model import layer_time
from repro.core.satisfaction import TimeRequirement
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.kernels import GemmShape
from repro.gpu.libraries import KernelLibrary
from repro.nn.layers import ConvSpec, DenseSpec
from repro.nn.models import NetworkDescriptor, ResolvedLayer
from repro.nn.perforation import PerforationPlan
from repro.obs.metrics import ordered_sum

__all__ = ["LayerSchedule", "CompiledPlan", "OfflineCompiler"]

#: Global-decision iterations before giving up on shrinking the batch.
_MAX_GLOBAL_ITERATIONS = 8


@dataclass(frozen=True)
class LayerSchedule:
    """Scheduling configuration of one GEMM-bound layer.

    This is one row of the paper's 'scheduling configurations' handed
    from offline compilation to run-time management: the tuned kernel,
    optTLP (inside ``tuned``), optSM, and the predicted time.
    """

    layer: ResolvedLayer
    shape: GemmShape
    tuned: TunedKernel
    opt_tlp: int
    opt_sm: int
    gemm_count: int
    time_s: float

    @property
    def name(self) -> str:
        """Layer name."""
        return self.layer.name

    @property
    def grid_size(self) -> int:
        """CTAs per GEMM launch."""
        return self.tuned.kernel.grid_size(self.shape)


@dataclass(frozen=True)
class _LayerDecision:
    """What a layer's schedule takes from its GEMM shape alone: the
    tuned kernel, the scheduling (optTLP, optSM) pair and the
    predicted seconds of one GEMM."""

    tuned: TunedKernel
    opt_tlp: int
    opt_sm: int
    gemm_time_s: float


@dataclass(frozen=True)
class CompiledPlan:
    """Everything run-time management needs for one configuration."""

    network: NetworkDescriptor
    arch: GPUArchitecture
    batch: int
    perforation: PerforationPlan
    schedules: List[LayerSchedule]
    aux_time_s: float

    @property
    def gemm_time_s(self) -> float:
        """Predicted time in conv/dense GEMMs for the whole batch."""
        return ordered_sum(schedule.time_s for schedule in self.schedules)

    @property
    def total_time_s(self) -> float:
        """Predicted end-to-end time for the whole batch (the paper's
        T, compared against T_user in the global decision)."""
        return self.gemm_time_s + self.aux_time_s

    @property
    def latency_s(self) -> float:
        """Response time of one request: the batch finishes together."""
        return self.total_time_s

    @property
    def throughput_ips(self) -> float:
        """Images per second."""
        return self.batch / self.total_time_s

    @property
    def max_opt_sm(self) -> int:
        """Most SMs any layer occupies (the rest never power on)."""
        return max(schedule.opt_sm for schedule in self.schedules)

    def schedule_for(self, layer_name: str) -> LayerSchedule:
        """Look up one layer's schedule."""
        for schedule in self.schedules:
            if schedule.name == layer_name:
                return schedule
        raise KeyError("no schedule for layer %r" % (layer_name,))

    def scheduling_table(self) -> Dict[str, Dict[str, int]]:
        """The (optSM, optTLP) table the runtime scheduler consumes."""
        return {
            schedule.name: {
                "opt_sm": schedule.opt_sm,
                "opt_tlp": schedule.opt_tlp,
            }
            for schedule in self.schedules
        }


class OfflineCompiler:
    """P-CNN's offline compiler for one target architecture.

    A layer's schedule depends on the plan only through the layer, the
    batch and that layer's own perforation rate, so the compiler keeps
    one :class:`LayerSchedule` per ``(layer, batch, rate)`` and one
    pool/softmax time per ``(layer, batch)``: the accuracy tuner's
    recompilations, which change one layer's rate per step, build only
    that layer.  A layer is named by its network's structural
    :meth:`~repro.nn.models.NetworkDescriptor.fingerprint`, which the
    engine's plan cache also keys on, and its position in the network:
    a string and an int hash far cheaper than the layer's spec and
    shapes.  Below that, a GEMM-bound layer's schedule depends on the
    network, batch and perforation only through its GEMM shape, so
    each shape is decided once -- tuned kernel, (optTLP, optSM) and
    the time of one GEMM -- and every layer of that shape reuses the
    decision, multiplied by its own GEMM count.  All of it lives as
    long as the compiler, which an engine and all its copies share:
    one fleet build.
    """

    def __init__(
        self,
        arch: GPUArchitecture,
        backend: KernelLibrary = PCNN_BACKEND,
    ) -> None:
        self.arch = arch
        self.backend = backend
        # The tuner's designs depend only on the arch: built on the
        # first tune, scored for every shape after.
        self._candidates: Optional[TuningCandidates] = None
        # Every batch and perforation that repeats a shape looks the
        # shape up here.
        self._decisions: Dict[GemmShape, _LayerDecision] = {}
        # Keyed by (network fingerprint, layer position, batch, the
        # layer's rate): a plan shares a layer's schedule with every
        # plan that perforates that layer alike.
        self._schedules: Dict[Tuple[str, int, int, float], LayerSchedule] = {}
        # Pool and softmax seconds, keyed by (network fingerprint,
        # layer position, batch).
        self._aux_times: Dict[Tuple[str, int, int], float] = {}

    def _tune(self, shape: GemmShape) -> TunedKernel:
        """``tune_layer_kernel(arch, shape, backend=backend)``, from
        this compiler's one candidate set."""
        if self._candidates is None:
            self._candidates = tuning_candidates(self.arch)
        return pick_tuned_kernel(
            self.arch, self._candidates, shape, self.backend
        )

    def _decide(self, shape: GemmShape) -> _LayerDecision:
        """The tuned kernel, scheduling pair and one-GEMM time of
        ``shape``, decided on its first request."""
        decision = self._decisions.get(shape)
        if decision is None:
            tuned = self._tune(shape)
            tlp, sms = self._schedule_resources(tuned, shape)
            decision = self._decisions[shape] = _LayerDecision(
                tuned,
                tlp,
                sms,
                layer_time(
                    self.arch, tuned, shape, tlp=tlp, n_sms=sms,
                    backend=self.backend,
                ),
            )
        return decision

    # ------------------------------------------------------------------
    def compile_with_batch(
        self,
        network: NetworkDescriptor,
        batch: int,
        perforation: Optional[PerforationPlan] = None,
    ) -> CompiledPlan:
        """Tune every GEMM-bound layer at a fixed batch size."""
        if batch < 1:
            raise ValueError("batch must be >= 1, got %r" % (batch,))
        perforation = perforation or PerforationPlan.dense()
        schedules: List[LayerSchedule] = []
        aux_time = 0.0
        digest = network.fingerprint()
        for position, layer in enumerate(network.layers):
            if isinstance(layer.spec, (ConvSpec, DenseSpec)):
                key = (digest, position, batch, perforation.rate(layer.name))
                schedule = self._schedules.get(key)
                if schedule is None:
                    schedule = self._schedules[key] = self._schedule(
                        network, layer, batch, perforation
                    )
                schedules.append(schedule)
            else:
                key = (digest, position, batch)
                seconds = self._aux_times.get(key)
                if seconds is None:
                    seconds = self._aux_times[key] = self._aux_layer_time(
                        layer, batch
                    )
                aux_time += seconds
        return CompiledPlan(
            network=network,
            arch=self.arch,
            batch=batch,
            perforation=perforation,
            schedules=schedules,
            aux_time_s=aux_time,
        )

    def compile(
        self,
        network: NetworkDescriptor,
        requirement: TimeRequirement,
        data_rate_hz: float = 1.0,
        perforation: Optional[PerforationPlan] = None,
    ) -> CompiledPlan:
        """Full offline compilation with the global decision loop."""
        profile = network.memory_profile()
        memory_cap = batch_selection.max_batch_fitting_memory(
            self.arch, profile, self.backend
        )
        if memory_cap == 0:
            raise ValueError(
                "%s does not fit on %s at any batch" % (network.name, self.arch.name)
            )
        if requirement.is_unbounded:
            batch = self.background_batch(network, perforation, memory_cap)
            return self.compile_with_batch(network, batch, perforation)

        batch = min(
            batch_selection.initial_batch(requirement, data_rate_hz), memory_cap
        )
        plan = self.compile_with_batch(network, batch, perforation)
        for _iteration in range(_MAX_GLOBAL_ITERATIONS):
            if plan.total_time_s <= requirement.budget_s or plan.batch == 1:
                break
            batch = batch_selection.shrink_batch(
                plan.batch, requirement.budget_s, plan.total_time_s
            )
            plan = self.compile_with_batch(network, batch, perforation)
        return plan

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule(
        self,
        network: NetworkDescriptor,
        layer: ResolvedLayer,
        batch: int,
        perforation: PerforationPlan,
    ) -> LayerSchedule:
        """One conv or dense layer's schedule."""
        spec = layer.spec
        if isinstance(spec, ConvSpec):
            shape = self._conv_shape(network, layer, batch, perforation)
            gemm_count = spec.groups
        else:
            shape = GemmShape(
                m_rows=spec.units,
                n_cols=batch,
                k_depth=layer.input_shape.elements,
            )
            gemm_count = 1
        decision = self._decide(shape)
        return LayerSchedule(
            layer,
            shape,
            decision.tuned,
            decision.opt_tlp,
            decision.opt_sm,
            gemm_count,
            # layer_time's ``gemm_count`` sequential GEMMs.
            decision.gemm_time_s * gemm_count,
        )

    def _conv_shape(
        self,
        network: NetworkDescriptor,
        layer: ResolvedLayer,
        batch: int,
        perforation: PerforationPlan,
    ) -> GemmShape:
        """Batched GEMM shape with perforation's column reduction."""
        shape = network.gemm_shape(layer, batch)
        fraction = perforation.column_fraction(
            layer.name, layer.output_shape.height, layer.output_shape.width
        )
        if fraction >= 1.0:
            return shape
        kept = max(1, int(round(shape.n_cols * fraction)))
        return shape.scaled_columns(kept)

    def background_batch(
        self,
        network: NetworkDescriptor,
        perforation: Optional[PerforationPlan] = None,
        memory_cap: Optional[int] = None,
    ) -> int:
        """Throughput-saturating batch for background tasks.

        The paper's rule -- grow the batch until the last conv layer's
        Util reaches 1 (Section IV.B.1a) -- is the conv-only special
        case; classifier layers keep amortizing their weight streaming
        past that point, so the general criterion is the time model's
        *throughput*: the smallest power-of-two batch within 5% of the
        best achievable, clamped by device memory.
        """
        if memory_cap is None:
            memory_cap = batch_selection.max_batch_fitting_memory(
                self.arch, network.memory_profile(), self.backend
            )
        if memory_cap == 0:
            raise ValueError(
                "%s does not fit on %s at any batch"
                % (network.name, self.arch.name)
            )
        candidates = []
        batch = 1
        while batch < memory_cap:
            candidates.append(batch)
            batch *= 2
        candidates.append(memory_cap)
        throughputs = {
            b: self.compile_with_batch(network, b, perforation).throughput_ips
            for b in candidates
        }
        best = max(throughputs.values())
        for b in candidates:
            if throughputs[b] >= 0.95 * best:
                return b
        return memory_cap

    def _schedule_resources(self, tuned: TunedKernel, shape: GemmShape):
        """The scheduling (optTLP, optSM) pair for one launch.

        The kernel's *tuned* TLP is its best per-SM residency at full
        load, but packing a small grid that deep would serialize CTAs
        that could run on idle SMs.  The scheduling TLP is therefore
        capped at the grid's natural spread, ``ceil(GridSize / nSMs)``
        -- the residency hardware Round-Robin would reach -- so
        Priority-SM packing never increases latency; Eq. 11 then frees
        every SM the capped TLP does not need.
        """
        grid = tuned.kernel.grid_size(shape)
        tlp = max(1, min(tuned.tlp, math.ceil(grid / self.arch.n_sms)))
        return tlp, opt_sm(self.arch, grid, tlp)

    def _aux_layer_time(self, layer: ResolvedLayer, batch: int) -> float:
        """Bandwidth-bound estimate for pool/softmax layers."""
        touched = (
            layer.input_shape.elements + layer.output_shape.elements
        ) * batch * 4.0
        return touched / self.arch.mem_bandwidth_bytes_per_s
