"""The Pervasive CNN framework (paper Fig. 10): the top-level API.

:class:`PervasiveCNN` wires the whole pipeline together:

1. **User input** -- the application spec is mapped to a time
   requirement and an entropy tolerance (:mod:`repro.core.user_input`).
2. **Cross-platform offline compilation** -- batch selection, kernel
   tuning, resource + time models (:mod:`repro.core.offline`).
3. **Run-time management** -- accuracy tuning builds the tuning table,
   the execution engine runs plans with Priority-SM scheduling and
   power gating, and calibration backtracks the tuning path when live
   uncertainty exceeds the threshold (:mod:`repro.core.runtime`).

Every compile and every execute goes through one
:class:`~repro.core.engine.ExecutionEngine`: the steady-state serving
loop (the same tuning entry executed request after request) is a
cache hit, and the engine's own stats count every compile, execute
and calibration.

A :class:`Deployment` is the stateful handle an application holds: it
processes requests (simulated on the GPU model, numerically through
the numpy network when trained parameters are supplied) and reports
per-request latency / energy / entropy / SoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.engine import ExecutionEngine
from repro.core.offline.kernel_tuning import PCNN_BACKEND
from repro.core.runtime.accuracy_tuning import (
    AccuracyTuner,
    AnalyticEntropyModel,
    TuningEntry,
    TuningTable,
)
from repro.core.runtime.calibration import Calibrator
from repro.core.runtime.scheduler import ExecutionReport
from repro.core.satisfaction import SoCBreakdown, soc
from repro.core.user_input import ApplicationSpec, InferredRequirement, infer_requirement
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.libraries import KernelLibrary
from repro.nn.models import NetworkDescriptor

__all__ = ["RequestOutcome", "Deployment", "PervasiveCNN"]


@dataclass(frozen=True)
class RequestOutcome:
    """What one processed request cost and delivered."""

    latency_s: float
    energy_per_item_j: float
    entropy: float
    entry_index: int
    soc: SoCBreakdown


@dataclass
class Deployment:
    """A network deployed on a platform for one application."""

    network: NetworkDescriptor
    arch: GPUArchitecture
    spec: ApplicationSpec
    requirement: InferredRequirement
    entropy_threshold: float
    tuning_table: TuningTable
    engine: ExecutionEngine
    power_gating: bool = True
    use_priority_sm: bool = True
    outcomes: List[RequestOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._calibrator = Calibrator(self.tuning_table, self.entropy_threshold)

    @property
    def calibrator(self) -> Calibrator:
        """The live tuning-path position holder."""
        return self._calibrator

    @property
    def current_entry(self) -> TuningEntry:
        """The tuning entry currently deployed."""
        return self._calibrator.current

    def execute_current(self) -> ExecutionReport:
        """Run the currently deployed plan through the engine."""
        return self.engine.execute(
            self._calibrator.current.compiled,
            power_gating=self.power_gating,
            use_priority_sm=self.use_priority_sm,
        )

    def observe_entropy(self, entropy: float) -> TuningEntry:
        """Feed one observation to the calibrator; the engine counts it."""
        entry = self._calibrator.observe(entropy)
        self.engine.record_calibration()
        return entry

    def process_request(
        self, observed_entropy: Optional[float] = None
    ) -> RequestOutcome:
        """Execute one batch under the current tuning entry.

        ``observed_entropy`` lets callers inject the entropy the live
        inputs produced (harder-than-calibration scenarios); it
        defaults to the tuning-time measurement.  Calibration reacts
        *after* the request, per the paper's monitor-then-calibrate
        loop.
        """
        entry = self._calibrator.current
        report = self.execute_current()
        entropy = (
            observed_entropy if observed_entropy is not None else entry.entropy
        )
        breakdown = soc(
            runtime_s=report.total_time_s,
            requirement=self.requirement.time,
            entropy=entropy,
            entropy_threshold=self.entropy_threshold,
            energy_joules=report.total_energy_joules / entry.compiled.batch,
        )
        outcome = RequestOutcome(
            latency_s=report.total_time_s,
            energy_per_item_j=report.total_energy_joules / entry.compiled.batch,
            entropy=entropy,
            entry_index=self._calibrator.index,
            soc=breakdown,
        )
        self.outcomes.append(outcome)
        self.observe_entropy(entropy)
        return outcome


class PervasiveCNN:
    """Facade: deploy CNNs with user-satisfaction-aware scheduling."""

    def __init__(
        self,
        arch: GPUArchitecture,
        backend: KernelLibrary = PCNN_BACKEND,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        """``engine`` lets several facades (a fleet) share one cache;
        by default each facade owns a fresh engine."""
        self.arch = arch
        self.backend = backend
        self.engine = engine or ExecutionEngine(arch=arch, backend=backend)

    @property
    def compiler(self):
        """The engine's offline compiler for this platform."""
        return self.engine.compiler_for(self.arch, self.backend)

    def deploy(
        self,
        network: NetworkDescriptor,
        spec: ApplicationSpec,
        evaluator=None,
        max_tuning_iterations: int = 32,
    ) -> Deployment:
        """Run the full pipeline for one application.

        ``evaluator`` supplies entropy measurements for accuracy tuning;
        defaults to the analytic model (use
        :class:`~repro.core.runtime.accuracy_tuning.EmpiricalEntropyEvaluator`
        with trained parameters for the faithful path).
        """
        requirement = infer_requirement(spec)
        compiled = self.engine.compile(
            network,
            requirement.time,
            data_rate_hz=spec.data_rate_hz,
            arch=self.arch,
            backend=self.backend,
        )
        if evaluator is None:
            evaluator = AnalyticEntropyModel(network)
        baseline = evaluator.evaluate(compiled.perforation).entropy
        threshold = requirement.entropy_threshold(baseline)
        tuner = AccuracyTuner(
            self.engine,
            network,
            evaluator,
            arch=self.arch,
            backend=self.backend,
        )
        table = tuner.tune(
            batch=compiled.batch,
            entropy_threshold=threshold,
            max_iterations=max_tuning_iterations,
        )
        return Deployment(
            network=network,
            arch=self.arch,
            spec=spec,
            requirement=requirement,
            entropy_threshold=threshold,
            tuning_table=table,
            engine=self.engine,
            power_gating=True,
            use_priority_sm=True,
        )
