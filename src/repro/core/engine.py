"""Unified execution engine: the single compile/execute seam.

The paper's deployment story is *compile once, execute many*: offline
compilation produces a :class:`~repro.core.offline.compiler.CompiledPlan`
per (network, platform, batch, perforation) configuration, and the
run-time loop then executes that plan over and over while the
calibrator walks the tuning path.  Both ``compile`` and ``execute``
are deterministic pure functions of their inputs, so repeating them is
pure waste -- yet the seed codebase re-ran both from three
independently wired call paths (:class:`~repro.core.framework.Deployment`,
:class:`~repro.core.runtime.server.InferenceServer`, the schedulers).

:class:`ExecutionEngine` collapses those paths into one mediated seam:

* a keyed **compilation cache**
  ``(network, arch, backend, batch, perforation fingerprint) -> CompiledPlan``;
* a memoized **execution cache**
  ``(plan fingerprint, power_gating, use_priority_sm) -> ExecutionReport``;
* its own :class:`EngineStats` counters (hit rates, prewarms,
  calibrations, cumulative simulated time, per-plan call counts),
  updated where each compile, cache hit, execute, prewarm and
  calibration happens;
* a list of **relays**, the callables a routing run registers for its
  duration: each compile is handed over as ``relay("compile", arch,
  network=, batch=, perforation=)`` and each plan or report cache hit
  as ``relay("cache_hit", arch or None, cache=)``, which the run
  writes into its event log.

One engine may serve *many* architectures (the fleet case): every
cache key carries the architecture and backend names, and the engine
lazily instantiates one :class:`~repro.core.offline.compiler.OfflineCompiler`
and one :class:`~repro.core.runtime.scheduler.RuntimeKernelManager`
per configuration, so cross-platform deployments of the same network
reuse tuned kernels per architecture.

Compile-side cost: each cache miss runs the offline compiler, whose
per-layer kernel tuning scores its whole (tile, stair-point) candidate
set with one vectorized sweep per GEMM shape
(:func:`repro.analysis.vec_score.batched_kernel_scores`) instead of
one analytic-model entry per candidate; scores -- and therefore the
tuned plans this engine caches -- are bit-identical to the scalar
path.

Cached objects are shared, not copied: :class:`CompiledPlan` is frozen
and :class:`ExecutionReport` is immutable by convention (nothing in
the library mutates a report after the manager returns it), so a cache
hit returns the identical object and is bit-identical to a recompute.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.offline.compiler import CompiledPlan, OfflineCompiler
from repro.core.offline.kernel_tuning import PCNN_BACKEND
from repro.core.runtime.scheduler import ExecutionReport, RuntimeKernelManager
from repro.core.satisfaction import TimeRequirement
from repro.gpu.architecture import GPUArchitecture
from repro.gpu.libraries import KernelLibrary
from repro.nn.models import NetworkDescriptor
from repro.nn.perforation import PerforationPlan

__all__ = [
    "perforation_fingerprint",
    "plan_fingerprint",
    "CompileKey",
    "ExecuteKey",
    "EngineStats",
    "ExecutionEngine",
]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def perforation_fingerprint(plan: PerforationPlan) -> str:
    """Canonical, collision-free fingerprint of a perforation plan.

    Layers at rate 0 are equivalent to absent layers (both mean
    "dense"), so they are dropped before serialization; the remainder
    is sorted so insertion order cannot perturb the key.
    """
    items = sorted(
        (name, rate) for name, rate in plan.rates.items() if rate > 0.0
    )
    if not items:
        return "dense"
    return ";".join("%s=%.12g" % (name, rate) for name, rate in items)


#: The instance-dict key under which a plan keeps its fingerprint.
_PLAN_DIGEST = "_digest"


def plan_fingerprint(plan: CompiledPlan) -> str:
    """Content fingerprint of a compiled plan (the execution-cache key).

    Captures everything execution depends on: the network structure,
    target architecture, batch, perforation, and every layer's tuned
    kernel + scheduling configuration (which is where the backend's
    influence lands).

    Digested once per plan, which is frozen; the digest is kept with
    the network fingerprint it covers
    (:meth:`~repro.nn.models.NetworkDescriptor.fingerprint`, a name
    plus a digest of every resolved layer), so rebinding the network's
    ``name`` or ``input_shape`` makes the next call digest again.
    """
    network = plan.network.fingerprint()
    memo = plan.__dict__.get(_PLAN_DIGEST)
    if memo is not None and memo[0] == network:
        return memo[1]
    parts = [
        network,
        plan.arch.name,
        "b%d" % plan.batch,
        perforation_fingerprint(plan.perforation),
        "aux%.12g" % plan.aux_time_s,
    ]
    for schedule in plan.schedules:
        parts.append(
            "%s|%s|%dx%dx%d|tlp%d|sm%d|g%d"
            % (
                schedule.name,
                schedule.tuned.kernel.name,
                schedule.shape.m_rows,
                schedule.shape.n_cols,
                schedule.shape.k_depth,
                schedule.opt_tlp,
                schedule.opt_sm,
                schedule.gemm_count,
            )
        )
    digest = hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()
    plan.__dict__[_PLAN_DIGEST] = (network, digest)
    return digest


@dataclass(frozen=True)
class CompileKey:
    """Key of one compilation-cache entry."""

    network: str
    arch: str
    backend: str
    batch: int
    perforation: str


@dataclass(frozen=True)
class ExecuteKey:
    """Key of one execution-cache entry.

    ``backend`` rides along because the runtime manager's timing model
    consults the kernel library directly (issue efficiency, transform
    overhead), so the same plan executed under two backends must not
    share a report.
    """

    plan: str
    power_gating: bool
    use_priority_sm: bool
    backend: str = PCNN_BACKEND.name


@dataclass
class EngineStats:
    """What one engine has done: cache hit rates and execution volume.

    The engine updates these counters itself, where each compile,
    cache hit, execute, prewarm and calibration happens.
    """

    compile_calls: int = 0
    compile_misses: int = 0
    execute_calls: int = 0
    execute_misses: int = 0
    calibrations: int = 0
    #: Plans requested by ExecutionEngine.prewarm (hits included).
    prewarm_requests: int = 0
    #: Prewarm requests that actually compiled (were not already cached).
    prewarm_misses: int = 0
    #: Compile-cache hits served by an entry a prewarm planted.
    prewarmed_hits: int = 0
    #: Simulated seconds served across every execute call (hits included).
    simulated_time_s: float = 0.0
    #: Execute call counts per plan fingerprint.
    plan_use_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def compile_hits(self) -> int:
        """Compile requests answered from the cache."""
        return self.compile_calls - self.compile_misses

    @property
    def execute_hits(self) -> int:
        """Execute requests answered from the cache."""
        return self.execute_calls - self.execute_misses

    @property
    def prewarm_hits(self) -> int:
        """Prewarm requests that were already cached (no compile needed)."""
        return self.prewarm_requests - self.prewarm_misses

    @property
    def compile_hit_rate(self) -> float:
        """Fraction of compile requests served from the cache."""
        if self.compile_calls == 0:
            return 0.0
        return self.compile_hits / self.compile_calls

    @property
    def execute_hit_rate(self) -> float:
        """Fraction of execute requests served from the cache."""
        if self.execute_calls == 0:
            return 0.0
        return self.execute_hits / self.execute_calls


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExecutionEngine:
    """Owns compilation and execution for one or many platforms.

    ``arch``/``backend`` set the defaults used when a call does not
    name a platform; a fleet-shared engine may be constructed with
    ``arch=None`` and passed an explicit architecture per call.  With
    ``cache=False`` the engine keeps no plan, report or runtime
    manager: every compile compiles and every execute simulates.
    """

    def __init__(
        self,
        arch: Optional[GPUArchitecture] = None,
        backend: KernelLibrary = PCNN_BACKEND,
        cache: bool = True,
    ) -> None:
        self.default_arch = arch
        self.default_backend = backend
        self.cache = cache
        self.stats = EngineStats()
        #: Called with each compile and cache hit (module docstring).
        self.relays: List[Callable[..., None]] = []
        self._compilers: Dict[Tuple[str, str], OfflineCompiler] = {}
        self._managers: Dict[Tuple[str, str, bool, bool], RuntimeKernelManager] = {}
        self._plans: Dict[CompileKey, CompiledPlan] = {}
        self._batch_decisions: Dict[tuple, int] = {}
        self._reports: Dict[ExecuteKey, ExecutionReport] = {}
        self._prewarmed: set = set()

    # -- plumbing -------------------------------------------------------
    def _resolve(
        self,
        arch: Optional[GPUArchitecture],
        backend: Optional[KernelLibrary],
    ) -> Tuple[GPUArchitecture, KernelLibrary]:
        arch = arch if arch is not None else self.default_arch
        backend = backend if backend is not None else self.default_backend
        if arch is None:
            raise ValueError(
                "engine has no default architecture; pass arch= explicitly"
            )
        return arch, backend

    def compiler_for(
        self,
        arch: Optional[GPUArchitecture] = None,
        backend: Optional[KernelLibrary] = None,
    ) -> OfflineCompiler:
        """The (lazily created, per-platform) offline compiler."""
        arch, backend = self._resolve(arch, backend)
        key = (arch.name, backend.name)
        compiler = self._compilers.get(key)
        if compiler is None:
            compiler = OfflineCompiler(arch, backend)
            self._compilers[key] = compiler
        return compiler

    def manager_for(
        self,
        power_gating: bool,
        use_priority_sm: bool,
        arch: Optional[GPUArchitecture] = None,
        backend: Optional[KernelLibrary] = None,
    ) -> RuntimeKernelManager:
        """The (lazily created) runtime kernel manager for one mode.

        An engine built with ``cache=False`` keeps no manager, so each
        call returns a fresh one and every execute simulates.
        """
        arch, backend = self._resolve(arch, backend)
        key = (arch.name, backend.name, power_gating, use_priority_sm)
        manager = self._managers.get(key)
        if manager is None:
            manager = RuntimeKernelManager(
                arch,
                backend=backend,
                power_gating=power_gating,
                use_priority_sm=use_priority_sm,
            )
            if self.cache:
                self._managers[key] = manager
        return manager

    def compile_key(
        self,
        network: NetworkDescriptor,
        batch: int,
        perforation: Optional[PerforationPlan] = None,
        arch: Optional[GPUArchitecture] = None,
        backend: Optional[KernelLibrary] = None,
    ) -> CompileKey:
        """The compilation-cache key one configuration maps to."""
        arch, backend = self._resolve(arch, backend)
        perforation = perforation or PerforationPlan.dense()
        return CompileKey(
            network=network.fingerprint(),
            arch=arch.name,
            backend=backend.name,
            batch=batch,
            perforation=perforation_fingerprint(perforation),
        )

    # -- compile --------------------------------------------------------
    def _note_compile(self, key: CompileKey) -> None:
        """Count one compilation and hand it to every relay."""
        self.stats.compile_calls += 1
        self.stats.compile_misses += 1
        for relay in self.relays:
            relay(
                "compile",
                key.arch,
                network=key.network,
                batch=key.batch,
                perforation=key.perforation,
            )

    def compile_with_batch(
        self,
        network: NetworkDescriptor,
        batch: int,
        perforation: Optional[PerforationPlan] = None,
        arch: Optional[GPUArchitecture] = None,
        backend: Optional[KernelLibrary] = None,
    ) -> CompiledPlan:
        """Fixed-batch compilation through the plan cache."""
        arch, backend = self._resolve(arch, backend)
        key = self.compile_key(network, batch, perforation, arch, backend)
        if self.cache:
            cached = self._plans.get(key)
            if cached is not None:
                self.stats.compile_calls += 1
                if key in self._prewarmed:
                    self.stats.prewarmed_hits += 1
                for relay in self.relays:
                    relay("cache_hit", key.arch, cache="compile")
                return cached
        plan = self.compiler_for(arch, backend).compile_with_batch(
            network, batch, perforation
        )
        if self.cache:
            self._plans[key] = plan
        self._note_compile(key)
        return plan

    def compile(
        self,
        network: NetworkDescriptor,
        requirement: TimeRequirement,
        data_rate_hz: float = 1.0,
        perforation: Optional[PerforationPlan] = None,
        arch: Optional[GPUArchitecture] = None,
        backend: Optional[KernelLibrary] = None,
    ) -> CompiledPlan:
        """Full requirement-driven compilation (global decision loop).

        The batch the loop settles on is memoized per (network, arch,
        backend, requirement, data rate, perforation); repeat calls
        collapse to a plan-cache lookup at that batch.
        """
        arch, backend = self._resolve(arch, backend)
        perforation = perforation or PerforationPlan.dense()
        decision_key = (
            network.fingerprint(),
            arch.name,
            backend.name,
            requirement.imperceptible_s,
            requirement.unusable_s,
            data_rate_hz,
            perforation_fingerprint(perforation),
        )
        batch = self._batch_decisions.get(decision_key)
        if batch is not None:
            return self.compile_with_batch(
                network, batch, perforation, arch, backend
            )
        plan = self.compiler_for(arch, backend).compile(
            network, requirement, data_rate_hz=data_rate_hz,
            perforation=perforation,
        )
        self._batch_decisions[decision_key] = plan.batch
        key = self.compile_key(network, plan.batch, perforation, arch, backend)
        if self.cache:
            self._plans[key] = plan
        self._note_compile(key)
        return plan

    def prewarm(
        self,
        specs,
        arch: Optional[GPUArchitecture] = None,
        backend: Optional[KernelLibrary] = None,
    ) -> Dict[CompileKey, bool]:
        """Plant plan-cache entries ahead of need (the control-plane seam).

        ``specs`` is an iterable of ``(network, batch, perforation,
        arch)`` tuples; a spec's ``arch`` of ``None`` falls back to the
        ``arch`` argument and then the engine default.  Each spec is
        compiled through the normal plan cache (so an entry that is
        already present costs one lookup) and remembered as prewarmed:
        later organic ``compile_with_batch`` hits on these keys count
        as ``stats.prewarmed_hits``, telling hits the controller bought
        from hits the workload earned.

        Returns ``{key: hit}`` -- ``True`` when the plan was already
        cached, ``False`` when the prewarm compiled it.
        """
        results: Dict[CompileKey, bool] = {}
        for network, batch, perforation, spec_arch in specs:
            use_arch, use_backend = self._resolve(
                spec_arch if spec_arch is not None else arch, backend
            )
            key = self.compile_key(
                network, batch, perforation, use_arch, use_backend
            )
            hit = self.cache and key in self._plans
            if not hit:
                self.compile_with_batch(
                    network, batch, perforation, use_arch, use_backend
                )
                self.stats.prewarm_misses += 1
            self._prewarmed.add(key)
            self.stats.prewarm_requests += 1
            results[key] = hit
        return results

    # -- execute --------------------------------------------------------
    def execute(
        self,
        plan: CompiledPlan,
        power_gating: bool = True,
        use_priority_sm: bool = True,
        backend: Optional[KernelLibrary] = None,
    ) -> ExecutionReport:
        """Execute a compiled plan through the report cache.

        The simulation is a deterministic pure function of
        ``(plan, power_gating, use_priority_sm)``; memoizing it is
        semantics-preserving and turns the steady-state serving loop
        into cache hits.  The plan's own architecture is the execution
        target.
        """
        resolved_backend = (
            backend if backend is not None else self.default_backend
        )
        key = ExecuteKey(
            plan=plan_fingerprint(plan),
            power_gating=power_gating,
            use_priority_sm=use_priority_sm,
            backend=resolved_backend.name,
        )
        stats = self.stats
        report = self._reports.get(key) if self.cache else None
        if report is not None:
            for relay in self.relays:
                relay("cache_hit", None, cache="execute")
        else:
            manager = self.manager_for(
                power_gating, use_priority_sm, arch=plan.arch, backend=backend
            )
            report = manager.execute(plan)
            if self.cache:
                self._reports[key] = report
            stats.execute_misses += 1
        stats.execute_calls += 1
        stats.simulated_time_s += report.total_time_s
        counts = stats.plan_use_counts
        counts[key.plan] = counts.get(key.plan, 0) + 1
        return report

    # -- calibration ----------------------------------------------------
    def record_calibration(self) -> None:
        """Count one calibration decision."""
        self.stats.calibrations += 1

    # -- copies ---------------------------------------------------------
    def copy(self) -> "ExecutionEngine":
        """An engine whose caches and stats start where this one's are.

        The copy starts with no relays and has its own plan cache,
        batch decisions, report cache and prewarm set, and stats
        counters equal to this engine's, so it counts and relays
        exactly what this engine would from here on, and nothing it
        does reaches this engine's caches, relays or stats.  The
        registries of per-platform compilers and runtime managers are
        shared, the same dicts: a compiler or manager that any copy
        creates later is the one every copy uses.  What they keep are
        memos of pure functions (a layer decision per GEMM shape, a
        kernel result per launch), so sharing them changes speed only.
        """
        twin = copy.copy(self)
        twin.stats = replace(
            self.stats, plan_use_counts=dict(self.stats.plan_use_counts)
        )
        twin.relays = []
        twin._plans = dict(self._plans)
        twin._batch_decisions = dict(self._batch_decisions)
        twin._reports = dict(self._reports)
        twin._prewarmed = set(self._prewarmed)
        return twin

    # -- maintenance ----------------------------------------------------
    @property
    def cached_plans(self) -> int:
        """Plans currently held by the compilation cache."""
        return len(self._plans)

    @property
    def cached_reports(self) -> int:
        """Reports currently held by the execution cache."""
        return len(self._reports)
