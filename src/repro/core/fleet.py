"""Fleet deployment: one application, every platform.

The paper's title promise -- *pervasive* CNN -- is that one trained
model serves users on servers, desktops, notebooks and phones with the
best satisfaction *each* platform can offer.  :class:`FleetManager`
makes that a first-class operation: deploy an application spec across a
set of GPU models in one call, get per-platform deployments plus an
aggregate report (who meets the requirement, at what latency/energy/
SoC), and route requests to any member.

This is orchestration sugar over :class:`~repro.core.framework.PervasiveCNN`;
it adds no new modeling, only the fleet-level view a real operator of
the paper's system would need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.engine import ExecutionEngine
from repro.core.framework import Deployment, PervasiveCNN
from repro.core.user_input import ApplicationSpec
from repro.gpu.architecture import GPUArchitecture, list_architectures
from repro.nn.models import NetworkDescriptor

__all__ = [
    "FleetDeployError", "PlatformReport", "FleetReport", "FleetManager",
    "check_distinct_gpus",
]


def check_distinct_gpus(architectures: Sequence[GPUArchitecture]) -> None:
    """Reject a platform list that names a GPU twice: a fleet deploys
    each platform once, so a repeat would deploy once yet report
    twice."""
    names = [arch.name for arch in architectures]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(
            "fleet lists GPU %s more than once; each platform deploys "
            "once" % ", ".join(repeated)
        )


class FleetDeployError(RuntimeError):
    """Raised when deploying to one or more platforms failed.

    ``failures`` maps each failing GPU name to the exception it raised;
    the message names every failing platform and its reason, so an
    operator sees the whole blast radius in one go instead of the first
    platform that happened to break.  Successful platforms stay
    deployed and reachable through :meth:`FleetManager.deployment`.
    """

    def __init__(self, failures: Dict[str, Exception]) -> None:
        self.failures = dict(failures)
        detail = "; ".join(
            "%s: %s" % (gpu, failures[gpu]) for gpu in sorted(failures)
        )
        super().__init__(
            "fleet deployment failed on %d platform(s): %s"
            % (len(failures), detail)
        )


@dataclass(frozen=True)
class PlatformReport:
    """One platform's steady-state numbers for the deployed app."""

    platform: str
    gpu: str
    batch: int
    latency_s: float
    energy_per_item_j: float
    entropy: float
    soc: float
    meets_requirement: bool
    tuning_speedup: float


@dataclass
class FleetReport:
    """Aggregate view across the fleet."""

    platforms: List[PlatformReport] = field(default_factory=list)

    @property
    def all_meet_requirement(self) -> bool:
        """Whether every platform delivers a non-zero SoC."""
        return all(p.meets_requirement for p in self.platforms)

    @property
    def best_platform(self) -> PlatformReport:
        """The platform with the highest SoC."""
        return max(self.platforms, key=lambda p: p.soc)

    def by_gpu(self, gpu: str) -> PlatformReport:
        """Look up one platform's report (KeyError names the fleet)."""
        for report in self.platforms:
            if report.gpu == gpu:
                return report
        known = ", ".join(sorted(report.gpu for report in self.platforms))
        raise KeyError("no platform %r in the fleet (known: %s)" % (gpu, known))


class FleetManager:
    """Deploy and probe one application across many GPU models."""

    def __init__(
        self,
        network: NetworkDescriptor,
        spec: ApplicationSpec,
        architectures: Optional[Sequence[GPUArchitecture]] = None,
        max_tuning_iterations: int = 32,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.network = network
        self.spec = spec
        self.architectures = list(
            architectures if architectures is not None else list_architectures()
        )
        if not self.architectures:
            raise ValueError("fleet needs at least one platform")
        check_distinct_gpus(self.architectures)
        self.max_tuning_iterations = max_tuning_iterations
        # One engine for the whole fleet: cache keys carry the
        # architecture, so cross-platform deployments of the same
        # network reuse tuned plans per platform, and fleet-wide cache
        # stats land in one place.
        self.engine = engine if engine is not None else ExecutionEngine()
        self._deployments: Dict[str, Deployment] = {}

    def deploy_all(self) -> Dict[str, Deployment]:
        """Run the full P-CNN pipeline on every platform (idempotent).

        Every platform is attempted even when an earlier one fails;
        failures are collected and raised together as a
        :class:`FleetDeployError` naming each broken GPU and why, while
        the platforms that did deploy remain cached for later calls.
        """
        failures: Dict[str, Exception] = {}
        for arch in self.architectures:
            if arch.name in self._deployments:
                continue
            pcnn = PervasiveCNN(arch, engine=self.engine)
            try:
                self._deployments[arch.name] = pcnn.deploy(
                    self.network,
                    self.spec,
                    max_tuning_iterations=self.max_tuning_iterations,
                )
            except Exception as exc:  # collected, not swallowed
                failures[arch.name] = exc
        if failures:
            raise FleetDeployError(failures)
        return dict(self._deployments)

    def copy(self) -> "FleetManager":
        """This fleet's deployments re-bound to a copy of its engine.

        Tuning tables and plans are immutable and shared; each copied
        deployment starts with a fresh calibrator, no outcomes and no
        memoized ladders, as a fresh deploy does, and its engine's
        caches start where this fleet's are
        (:meth:`ExecutionEngine.copy`).  Running the copy leaves this
        fleet as it was, so one build can seed many runs.
        """
        engine = self.engine.copy()
        twin = FleetManager(
            self.network,
            self.spec,
            architectures=self.architectures,
            max_tuning_iterations=self.max_tuning_iterations,
            engine=engine,
        )
        twin._deployments = {
            name: replace(deployment, engine=engine, outcomes=[])
            for name, deployment in self._deployments.items()
        }
        return twin

    def capacity_rps(self) -> float:
        """Steady-state capacity at rung 0, in requests per second:
        each deployment's current batch over its execution time, added
        from ``0.0`` in platform order.  The probe sizes every storm's
        offered rate, so its float bits pin every storm fingerprint.
        Deploys if needed; executes once per platform."""
        total = 0.0
        for deployment in self.deploy_all().values():
            entry = deployment.current_entry
            execution = deployment.engine.execute(
                entry.compiled,
                power_gating=deployment.power_gating,
                use_priority_sm=deployment.use_priority_sm,
            )
            total += entry.compiled.batch / execution.total_time_s
        return total

    def deployment(self, gpu: str) -> Deployment:
        """One platform's deployment (deploying lazily if needed)."""
        self.deploy_all()
        try:
            return self._deployments[gpu]
        except KeyError:
            known = ", ".join(sorted(self._deployments))
            raise KeyError("no deployment for %r (fleet: %s)" % (gpu, known))

    def report(self) -> FleetReport:
        """Probe every deployment with one request and aggregate."""
        self.deploy_all()
        fleet = FleetReport()
        for arch in self.architectures:
            deployment = self._deployments[arch.name]
            outcome = deployment.process_request()
            table = deployment.tuning_table
            fleet.platforms.append(
                PlatformReport(
                    platform=arch.platform,
                    gpu=arch.name,
                    batch=deployment.current_entry.compiled.batch,
                    latency_s=outcome.latency_s,
                    energy_per_item_j=outcome.energy_per_item_j,
                    entropy=outcome.entropy,
                    soc=outcome.soc.value,
                    meets_requirement=outcome.soc.meets_satisfaction,
                    tuning_speedup=table.fastest.speedup,
                )
            )
        return fleet
