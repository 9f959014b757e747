"""Entropy-based run-time accuracy tuning (paper Section IV.C.1, Fig. 12).

The tuner trades accuracy for speed by perforating conv layers.  It is
greedy and unsupervised: in each iteration it tries advancing *one*
layer's perforation rate to the next rung of the ladder, measures the
speedup (time model) and the entropy increase (no labels needed --
Eq. 2), and adopts the layer with the best time-per-entropy trade-off::

    TE = (T_ori - T_layer_i) / (CNNentropy_layer_i - CNNentropy_ori)   (Eq. 14)

The walk stops when the next step would push output uncertainty past
the user's threshold.  Every adopted step is recorded as a
:class:`TuningEntry` -- the *tuning table* with its (optSM, optTLP)
scheduling configuration rebuilt by the resource model -- and the
ordered list forms the *tuning path* the calibration stage backtracks
along when live inputs turn out harder than the calibration set.

Entropy evaluation is pluggable:

* :class:`EmpiricalEntropyEvaluator` runs a trained numpy network on a
  calibration set under each candidate plan (the faithful mechanism;
  used with the PcnnNet proxies for Fig. 16).
* :class:`AnalyticEntropyModel` maps a perforation plan to an entropy
  estimate through per-layer sensitivity coefficients, so the
  scheduler-level experiments (Figs. 13-15) can tune the big ImageNet
  descriptors for which no trained weights exist in this repo.  Its
  shape (entropy rises superlinearly in rate; early, high-resolution
  layers hurt less per FLOP saved) matches what the empirical
  evaluator measures on the proxies -- asserted in the integration
  tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.offline.compiler import CompiledPlan, OfflineCompiler
from repro.nn.datasets import Dataset
from repro.nn.inference import NetworkParameters
from repro.nn.models import NetworkDescriptor
from repro.nn.perforation import RATE_LADDER, PerforationPlan
from repro.nn.training import evaluate

__all__ = [
    "EntropySample",
    "EmpiricalEntropyEvaluator",
    "AnalyticEntropyModel",
    "TuningEntry",
    "TuningTable",
    "AccuracyTuner",
]

#: Guard against zero division when a candidate's entropy does not rise.
_MIN_ENTROPY_DELTA = 1e-6


@dataclass(frozen=True)
class EntropySample:
    """One measurement of a plan: entropy always, accuracy when labeled
    data exists (Fig. 16's validation line)."""

    entropy: float
    accuracy: Optional[float] = None


class EmpiricalEntropyEvaluator:
    """Measure entropy (and accuracy) by running a trained network on a
    calibration set under the candidate perforation plan."""

    def __init__(
        self,
        network: NetworkDescriptor,
        params: NetworkParameters,
        calibration: Dataset,
    ) -> None:
        self.network = network
        self.params = params
        self.calibration = calibration

    def evaluate(self, plan: PerforationPlan) -> EntropySample:
        """Run the calibration set through the perforated network."""
        result = evaluate(self.network, self.params, self.calibration, plan)
        return EntropySample(entropy=result.mean_entropy, accuracy=result.accuracy)


class AnalyticEntropyModel:
    """Closed-form entropy estimate for untrained network descriptors.

    ``entropy(plan) = base * (1 + sum_l s_l * rate_l ** p)`` with
    per-layer sensitivities ``s_l``.  Defaults make later (smaller,
    more semantic) layers *more* sensitive per unit rate -- consistent
    with the proxies' empirical behaviour and with the intuition that
    early layers have the most spatial redundancy to spare.
    """

    def __init__(
        self,
        network: NetworkDescriptor,
        base_entropy: float = 1.0,
        sensitivities: Optional[Dict[str, float]] = None,
        exponent: float = 1.5,
    ) -> None:
        if base_entropy <= 0:
            raise ValueError("base_entropy must be positive")
        self.network = network
        self.base_entropy = base_entropy
        self.exponent = exponent
        if sensitivities is None:
            convs = network.conv_layers
            n = len(convs)
            sensitivities = {
                layer.name: 0.15 + 0.45 * (index / max(n - 1, 1))
                for index, layer in enumerate(convs)
            }
        self.sensitivities = dict(sensitivities)

    def evaluate(self, plan: PerforationPlan) -> EntropySample:
        """Entropy estimate; no accuracy (unsupervised by construction)."""
        bump = 0.0
        for name, sensitivity in self.sensitivities.items():
            rate = plan.rate(name)
            if rate > 0.0:
                bump += sensitivity * rate**self.exponent
        return EntropySample(entropy=self.base_entropy * (1.0 + bump))


@dataclass(frozen=True)
class TuningEntry:
    """One rung of the tuning path (one row of the tuning table)."""

    iteration: int
    plan: PerforationPlan
    compiled: CompiledPlan
    entropy: float
    accuracy: Optional[float]
    time_s: float
    speedup: float
    te_score: float

    @property
    def scheduling_table(self) -> Dict[str, Dict[str, int]]:
        """(optSM, optTLP) per layer for the runtime scheduler."""
        return self.compiled.scheduling_table()


@dataclass
class TuningTable:
    """The ordered tuning path: entry 0 is the dense network, each
    subsequent entry is one adopted greedy step (faster, less certain).
    Calibration backtracks toward entry 0."""

    entries: List[TuningEntry] = field(default_factory=list)
    entropy_threshold: float = math.inf

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> TuningEntry:
        return self.entries[index]

    @property
    def dense(self) -> TuningEntry:
        """The unperforated starting point."""
        return self.entries[0]

    @property
    def fastest(self) -> TuningEntry:
        """The most aggressive entry that stayed under the threshold."""
        return self.entries[-1]

    def entry_within(self, entropy_budget: float) -> TuningEntry:
        """Most aggressive entry whose tuning-time entropy fits a
        (possibly stricter) budget."""
        for entry in reversed(self.entries):
            if entry.entropy <= entropy_budget:
                return entry
        return self.dense


class AccuracyTuner:
    """The greedy tuner of Fig. 12.

    Tuning is the hottest offline path -- every iteration recompiles
    one candidate plan per conv layer -- so all compilation goes
    through an :class:`~repro.core.engine.ExecutionEngine`'s plan
    cache.
    """

    def __init__(
        self,
        engine,
        network: NetworkDescriptor,
        evaluator,
        rate_ladder: Sequence[float] = RATE_LADDER,
        arch=None,
        backend=None,
    ) -> None:
        self.engine = engine
        self.arch = arch if arch is not None else engine.default_arch
        self.backend = backend if backend is not None else engine.default_backend
        self.network = network
        self.evaluator = evaluator
        self.rate_ladder = tuple(rate_ladder)
        if list(self.rate_ladder) != sorted(set(self.rate_ladder)):
            raise ValueError("rate_ladder must be strictly increasing")
        # Exact sentinel: the dense rung is the assigned constant 0.0,
        # never a computed value.
        if self.rate_ladder[0] != 0.0:  # lint: ignore[REP002]
            raise ValueError("rate_ladder must start at 0.0 (dense)")

    @property
    def compiler(self) -> OfflineCompiler:
        """The underlying offline compiler (for introspection)."""
        return self.engine.compiler_for(self.arch, self.backend)

    def _compile(self, batch: int, plan: PerforationPlan) -> CompiledPlan:
        return self.engine.compile_with_batch(
            self.network, batch, plan, arch=self.arch, backend=self.backend
        )

    def _next_rate(self, current: float) -> Optional[float]:
        """Next rung above ``current`` (None at the top)."""
        for rate in self.rate_ladder:
            if rate > current + 1e-12:
                return rate
        return None

    def tune(
        self,
        batch: int,
        entropy_threshold: float,
        max_iterations: int = 32,
    ) -> TuningTable:
        """Run the greedy walk until the threshold (or ladder) is hit."""
        if not entropy_threshold > 0:  # NaN fails this too
            raise ValueError(
                "entropy_threshold must be positive, got %r"
                % (entropy_threshold,)
            )
        if max_iterations < 0:
            raise ValueError(
                "max_iterations must be non-negative, got %r"
                % (max_iterations,)
            )
        plan = PerforationPlan.dense()
        compiled = self._compile(batch, plan)
        sample = self.evaluator.evaluate(plan)
        base_time = compiled.total_time_s
        table = TuningTable(entropy_threshold=entropy_threshold)
        table.entries.append(
            TuningEntry(
                iteration=0,
                plan=plan,
                compiled=compiled,
                entropy=sample.entropy,
                accuracy=sample.accuracy,
                time_s=base_time,
                speedup=1.0,
                te_score=0.0,
            )
        )
        current_entropy = sample.entropy
        current_time = base_time

        for iteration in range(1, max_iterations + 1):
            best = None
            for layer in self.network.conv_layers:
                next_rate = self._next_rate(plan.rate(layer.name))
                if next_rate is None:
                    continue
                candidate_plan = plan.with_rate(layer.name, next_rate)
                candidate_compiled = self._compile(batch, candidate_plan)
                candidate_time = candidate_compiled.total_time_s
                if candidate_time >= current_time:
                    continue  # no speedup, no point paying entropy for it
                candidate_sample = self.evaluator.evaluate(candidate_plan)
                delta_entropy = max(
                    candidate_sample.entropy - current_entropy, _MIN_ENTROPY_DELTA
                )
                te = (current_time - candidate_time) / delta_entropy
                if best is None or te > best[0]:
                    best = (
                        te,
                        candidate_plan,
                        candidate_compiled,
                        candidate_sample,
                    )
            if best is None:
                break
            te, plan_c, compiled_c, sample_c = best
            if sample_c.entropy > entropy_threshold:
                break  # next step would violate the user's tolerance
            plan, compiled = plan_c, compiled_c
            current_entropy = sample_c.entropy
            current_time = compiled.total_time_s
            table.entries.append(
                TuningEntry(
                    iteration=iteration,
                    plan=plan,
                    compiled=compiled,
                    entropy=current_entropy,
                    accuracy=sample_c.accuracy,
                    time_s=current_time,
                    speedup=base_time / current_time,
                    te_score=te,
                )
            )
        return table
