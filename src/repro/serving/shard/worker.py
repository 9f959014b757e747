"""The shard worker: one router run behind a spawn-picklable spec.

A shard is one :class:`~repro.serving.router.RequestRouter` over its
own :class:`~repro.core.fleet.FleetManager`.  Deployments hold engine
state (tuned plans, caches) and never cross a process boundary: the
spec ships *names* -- network, GPUs, tenant loads, fault schedule --
and every shard routes on :meth:`FleetSpec.deployed`, a
:meth:`~repro.core.fleet.FleetManager.copy` of the one build its
:class:`FleetSpec` keeps.  Inline shards share their coordinator's
spec and so its build; a spawn worker unpickles the spec without the
build and builds its own.  A copy's caches start where a fresh
build's would, so either way the shard relays the same engine events
and returns the same report.

:func:`run_shard` is deliberately a top-level function so
``multiprocessing``'s spawn start method can pickle a reference to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.fleet import FleetManager, check_distinct_gpus
from repro.core.user_input import ApplicationSpec
from repro.faults.events import FaultTrace
from repro.gpu import get_architecture
from repro.nn.models import get_network
from repro.obs.instrument import Instrumentation
from repro.serving.report import RouterReport
from repro.serving.request import TenantLoad
from repro.serving.router import RequestRouter, RouterConfig
from repro.serving.shard.planner import shard_label

__all__ = ["FleetSpec", "ShardResult", "ShardSpec", "run_shard"]


#: The instance-dict key under which a :class:`FleetSpec` keeps its
#: build (see :meth:`FleetSpec.deployed`).
_BUILT = "_built"


@dataclass(frozen=True)
class FleetSpec:
    """A fleet described by names, built where the shards run.

    Everything here pickles cleanly under spawn; :meth:`build`
    resolves the names against the registries and runs the full
    deployment pipeline, so every shard starts from an identical,
    deterministic fleet.  :meth:`deployed` builds once per spec
    instance and hands out copies: the shards of one inline
    coordinator run share one build, and each spawn worker, which
    receives the spec without it, builds its own.
    """

    network: str
    spec: ApplicationSpec
    gpus: Tuple[str, ...]
    max_tuning_iterations: int = 32

    def __post_init__(self) -> None:
        # Resolve every name here: an unknown one would otherwise fail
        # inside each worker, where supervision retries it to
        # exhaustion and the caller never sees which name was wrong.
        if not self.gpus:
            raise ValueError("fleet spec needs at least one GPU name")
        try:
            get_network(self.network)
        except KeyError as error:
            raise ValueError("network: %s" % (error.args[0],)) from None
        try:
            check_distinct_gpus(
                [get_architecture(name) for name in self.gpus]
            )
        except (KeyError, ValueError) as error:
            raise ValueError("gpus: %s" % (error.args[0],)) from None
        if self.max_tuning_iterations < 0:
            raise ValueError(
                "max_tuning_iterations must be >= 0, got %r"
                % (self.max_tuning_iterations,)
            )

    def __getstate__(self) -> dict:
        # The build holds engine state and never crosses a process
        # boundary; leaving it out also keeps a spec's pickle, and so
        # a checkpoint digest, the same before and after deployed().
        state = dict(self.__dict__)
        state.pop(_BUILT, None)
        return state

    def build(self) -> FleetManager:
        """Resolve names and deploy the whole fleet."""
        manager = FleetManager(
            get_network(self.network),
            self.spec,
            architectures=[get_architecture(name) for name in self.gpus],
            max_tuning_iterations=self.max_tuning_iterations,
        )
        manager.deploy_all()
        return manager

    def deployed(self) -> FleetManager:
        """A fresh :meth:`~repro.core.fleet.FleetManager.copy` of this
        spec's one build.

        The first call runs :meth:`build` and keeps the result on the
        instance; it lives as long as the spec, is never pickled and
        is not carried by ``dataclasses.replace``.  Nothing routes on
        the build itself: every call returns its own copy, whose
        caches start where a fresh build's would, so reusing a spec
        changes speed only.
        """
        built = self.__dict__.get(_BUILT)
        if built is None:
            built = self.__dict__[_BUILT] = self.build()
        return built.copy()


@dataclass(frozen=True)
class ShardSpec:
    """One shard's complete, picklable run description.

    ``seed`` is the shard's RNG root, derived by the coordinator via
    :func:`~repro.serving.shard.planner.shard_seed` from the global
    seed and the shard id; any stochastic synthesis a worker performs
    must seed from it.  The routing run itself is deterministic given
    the loads and faults, so the seed's main job is audit: it travels
    into the :class:`ShardResult` unchanged.
    """

    shard_id: int
    n_shards: int
    fleet: FleetSpec
    config: RouterConfig
    loads: Tuple[TenantLoad, ...]
    faults: Optional[FaultTrace] = None
    seed: int = 0
    instrument: bool = False
    #: Optional predictive-controller recipe.  Duck-typed on purpose
    #: (anything picklable with a ``build()`` returning a router
    #: controller, in practice a
    #: :class:`repro.control.plane.ControllerConfig`) so the serving
    #: layer keeps zero imports of :mod:`repro.control`.
    controller: Optional[object] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(
                "n_shards must be >= 1, got %r" % (self.n_shards,)
            )
        if not 0 <= self.shard_id < self.n_shards:
            raise ValueError(
                "shard_id %r out of range for %d shards"
                % (self.shard_id, self.n_shards)
            )

    @property
    def label(self) -> Optional[str]:
        """The shard's obs label (``None`` in the 1-shard degenerate
        case so single-shard runs stay byte-identical to unsharded
        ones)."""
        if self.n_shards == 1:
            return None
        return shard_label(self.shard_id)


@dataclass(frozen=True)
class ShardResult:
    """What one shard sends back across the process boundary.

    Spans travel as plain dicts (:meth:`Span.to_dict` form) rather
    than a :class:`~repro.obs.span.TraceBuffer` so the payload stays
    schema-stable under pickle; the coordinator re-hydrates and
    re-parents them when stitching the global trace.
    """

    shard_id: int
    seed: int
    report: RouterReport
    spans: Optional[Tuple[dict, ...]] = None
    #: The report fingerprint declared where the result can change
    #: hands: taken when the result is pickled (the spawn pipe, a
    #: checkpoint file) and by a fault plan's ``tamper`` before it
    #: touches the report; ``None`` on a result that never left the
    #: process that produced it.  The supervisor recomputes a declared
    #: fingerprint from the received report; any divergence means the
    #: payload changed on the way (or a fault plan corrupted it) and
    #: the attempt is rejected.
    declared_fingerprint: Optional[str] = None

    def __reduce__(self):
        declared = self.declared_fingerprint
        if declared is None:
            declared = self.report.fingerprint()
        return ShardResult, (
            self.shard_id, self.seed, self.report, self.spans, declared,
        )


def run_shard(spec: ShardSpec) -> ShardResult:
    """Route the spec's loads on a copy of its fleet, package the
    result.

    Top-level on purpose: the spawn start method pickles a reference
    to this function plus the spec, and nothing else.  The fleet is
    :meth:`FleetSpec.deployed`, a fresh copy per call, since the run
    warms its caches.

    The result declares no fingerprint here: an inline result is the
    object the supervisor validates, and a spawn result declares one
    when it is pickled onto the pipe (see :class:`ShardResult`).
    Injected process faults happen around this call, not in it: the
    :class:`~repro.resilience.ShardSupervisor` decides each attempt's
    fault and applies it.
    """
    obs = (
        Instrumentation(shard=spec.label) if spec.instrument else None
    )
    router = RequestRouter(spec.fleet.deployed(), spec.config)
    plane = (
        spec.controller.build() if spec.controller is not None else None
    )
    report = router.run(
        list(spec.loads), faults=spec.faults, obs=obs, controller=plane
    )
    spans = (
        tuple(obs.buffer.to_dicts()) if obs is not None else None
    )
    return ShardResult(
        shard_id=spec.shard_id,
        seed=spec.seed,
        report=report,
        spans=spans,
    )
