"""The predictive control plane: forecast, pre-warm, pre-degrade, DVFS.

A :class:`ControlPlane` attaches to one
:meth:`~repro.serving.router.RequestRouter.run` call (pass it as the
``controller`` argument).  The router notifies it of every arrival
and fires :meth:`tick` on a fixed sim-clock cadence; each tick the
plane

1. closes the arrival window -- one windowed rate observation per
   tenant, fed to that tenant's forecaster;
2. forecasts the fleet arrival rate ``horizon_ticks`` ahead and maps
   it to a target degradation level via the ladder's empirical
   capacity growth (throughput multiplies by roughly
   ``2^0.75`` per level: batch doubling plus perforation);
3. pre-warms the engine plan cache for the rungs it predicts needing
   (:meth:`~repro.core.engine.ExecutionEngine.prewarm` through
   :meth:`~repro.serving.degradation.DegradationLadder.prewarm_specs`),
   so the lazy ladder's later materialization is a cache hit instead
   of a critical-path compile;
4. escalates each platform's degradation controller toward the target
   *before* the backlog forms (the reactive hysteresis still walks
   levels back down when the forecast was wrong or the burst passes);
5. commands per-platform DVFS states: the lowest frequency whose
   scaled capacity still clears the forecast share with headroom --
   ramping ahead of spikes, power-gating ahead of troughs.

Everything is a deterministic pure function of the arrival sequence
and the ladder's measured rungs: no wall clock, no RNG (REP001 covers
this package), so same-seed runs produce bit-identical reports.  One
plane instance observes one run -- build a fresh one per run (or keep
a picklable :class:`ControllerConfig` around and ``build()`` per run,
which is how the shard workers do it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.control.forecast import (
    ArrivalForecaster,
    EwmaForecaster,
    HoltWintersForecaster,
)
from repro.gpu.dvfs import DEFAULT_FREQUENCY_LADDER, FrequencyState
from repro.obs.metrics import ordered_sum
from repro.validation import require_finite

__all__ = ["CONTROLLER_KINDS", "ControllerConfig", "ControlPlane", "TickOutcome"]

#: Forecaster families :class:`ControllerConfig` can name.
CONTROLLER_KINDS = ("ewma", "holt-winters")

#: Throughput multiplier per ladder level.  Empirically the measured
#: ladders gain ~2^0.75 per level (batch doubling amortizes overhead
#: sub-linearly; perforation shrinks the GEMMs): K20c walks 325 ->
#: 575 -> 908 -> 1267 rps and TX1 51 -> 86 -> 139 -> 198, both within
#: a few percent of this growth rate.
LEVEL_CAPACITY_GROWTH = 2.0 ** 0.75


@dataclass(frozen=True)
class ControllerConfig:
    """Picklable recipe for one :class:`ControlPlane`.

    ``kind`` picks the forecaster family; ``alpha``/``beta``/``gamma``
    and ``season_ticks`` parameterize it (EWMA uses only ``alpha``).
    ``tick_s`` is the control cadence on the sim clock and the rate
    window; ``horizon_ticks`` how far ahead provisioning looks;
    ``lookahead_levels`` how many rungs beyond the target level are
    pre-warmed.  ``headroom`` inflates the forecast before choosing a
    degradation level, ``dvfs_headroom`` before choosing a frequency
    (DVFS can be disabled outright with ``dvfs=False``, pre-warming
    with ``prewarm=False``).
    """

    kind: str = "ewma"
    tick_s: float = 0.25
    horizon_ticks: int = 2
    lookahead_levels: int = 1
    headroom: float = 1.2
    dvfs_headroom: float = 1.3
    alpha: float = 0.5
    beta: float = 0.1
    gamma: float = 0.3
    season_ticks: int = 0
    prewarm: bool = True
    dvfs: bool = True

    def __post_init__(self) -> None:
        # A NaN tick_s would schedule no tick at all.
        require_finite(**vars(self))
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(
                "unknown controller kind %r (known: %s)"
                % (self.kind, ", ".join(CONTROLLER_KINDS))
            )
        if self.tick_s <= 0:
            raise ValueError(
                "tick_s must be positive, got %r" % (self.tick_s,)
            )
        if self.horizon_ticks < 1:
            raise ValueError(
                "horizon_ticks must be >= 1, got %r" % (self.horizon_ticks,)
            )
        if self.lookahead_levels < 0:
            raise ValueError(
                "lookahead_levels must be >= 0, got %r"
                % (self.lookahead_levels,)
            )
        if self.headroom < 1.0 or self.dvfs_headroom < 1.0:
            raise ValueError("headroom factors must be >= 1.0")
        # The forecaster parameters are checked here for every kind,
        # so a bad one fails at construction, not at the first tick
        # (and not never, on a run too short to tick).
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % (self.alpha,))
        for name in ("beta", "gamma"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    "%s must be in [0, 1], got %r" % (name, getattr(self, name))
                )
        if self.season_ticks < 0:
            raise ValueError(
                "season_ticks must be >= 0, got %r" % (self.season_ticks,)
            )

    def build(self) -> "ControlPlane":
        """A fresh plane for one router run."""
        return ControlPlane(self)


@dataclass
class TickOutcome:
    """What one control tick observed and did (the router mirrors
    this into its event log)."""

    time_s: float
    observed_rps: float
    forecast_rps: float
    target_level: int
    #: (platform, level, batch) per rung pre-warmed this tick.
    prewarmed: List[Tuple[str, int, int]] = field(default_factory=list)
    #: (platform, old level, new level) per proactive escalation.
    degraded: List[Tuple[str, int, int]] = field(default_factory=list)
    #: (platform, relative frequency) per commanded DVFS change.
    dvfs_moves: List[Tuple[str, float]] = field(default_factory=list)
    #: Platforms whose dispatch-relevant state changed (the router
    #: re-runs their dispatch loop).
    changed_platforms: Set[str] = field(default_factory=set)


class ControlPlane:
    """Per-run predictive controller over a router's platform states."""

    def __init__(self, config: Optional[ControllerConfig] = None) -> None:
        self.config = config if config is not None else ControllerConfig()
        self._forecasters: Dict[str, ArrivalForecaster] = {}
        self._counts: Dict[str, int] = {}
        #: One-step-ahead fleet forecast issued by the previous tick.
        self._pending_forecast: Optional[float] = None
        #: Absolute one-step fleet forecast error per scored tick (every
        #: tick but the first), in tick order.
        self.errors: List[float] = []
        self.ticks = 0
        self.prewarm_requested = 0
        self.prewarm_hits = 0
        self.prewarm_misses = 0
        self.degrades = 0
        self.dvfs_move_count = 0
        self._cap0: Dict[str, float] = {}
        self._total_cap0 = 0.0
        #: Index into DEFAULT_FREQUENCY_LADDER per platform (integers,
        #: so change detection never compares floats).
        self._freq_index: Dict[str, int] = {}
        #: Cumulative requests_served per platform at the last tick,
        #: for per-platform windowed service rates.
        self._served: Dict[str, int] = {}

    @property
    def tick_s(self) -> float:
        """The control cadence (the router schedules ticks off this)."""
        return self.config.tick_s

    def _new_forecaster(self) -> ArrivalForecaster:
        config = self.config
        if config.kind == "holt-winters":
            return HoltWintersForecaster(
                alpha=config.alpha,
                beta=config.beta,
                gamma=config.gamma,
                season_length=config.season_ticks,
            )
        return EwmaForecaster(alpha=config.alpha)

    # -- router-facing surface ------------------------------------------
    def begin(self, states, now: float) -> None:
        """Capture the fleet's rung-0 capacity baseline at run start."""
        nominal = len(DEFAULT_FREQUENCY_LADDER) - 1
        self._cap0 = {
            name: states[name].ladder[0].throughput_rps
            for name in sorted(states)
        }
        self._total_cap0 = ordered_sum(self._cap0.values())
        self._freq_index = {name: nominal for name in self._cap0}
        self._served = {name: states[name].requests_served for name in self._cap0}

    def observe_arrival(self, tenant: str, time_s: float) -> None:
        """Count one arrival of tenant ``tenant`` into the current
        window."""
        self._counts[tenant] = self._counts.get(tenant, 0) + 1

    def tick(self, now: float, states) -> TickOutcome:
        """Close the window, forecast, and act on every platform."""
        config = self.config
        # A tenant once seen keeps observing (zero-rate windows teach
        # the forecaster about troughs).
        tenants = sorted(set(self._forecasters) | set(self._counts))
        observed_rps = 0.0
        for name in tenants:
            rate = self._counts.get(name, 0) / config.tick_s
            observed_rps += rate
            forecaster = self._forecasters.get(name)
            if forecaster is None:
                forecaster = self._forecasters[name] = self._new_forecaster()
            forecaster.observe(rate)
        self._counts.clear()
        if self._pending_forecast is not None:
            self.errors.append(abs(observed_rps - self._pending_forecast))
        names = sorted(self._forecasters)
        forecast_rps = ordered_sum(
            self._forecasters[name].forecast(config.horizon_ticks)
            for name in names
        )
        self._pending_forecast = ordered_sum(
            self._forecasters[name].forecast(1) for name in names
        )
        self.ticks += 1

        # Provision against the *worse* of what we just saw and what
        # we forecast: a lagging forecaster (EWMA mid-burst-onset) must
        # never talk the fleet into shedding capacity it visibly needs.
        provision_rps = max(observed_rps, forecast_rps)
        target_level = self._target_level(provision_rps, states)
        outcome = TickOutcome(
            time_s=now,
            observed_rps=observed_rps,
            forecast_rps=forecast_rps,
            target_level=target_level,
        )
        for name in sorted(states):
            state = states[name]
            platform_target = min(target_level, state.ladder.max_level)
            if config.prewarm:
                self._prewarm(name, state, platform_target, outcome)
            if platform_target > state.controller.level:
                old_level = state.controller.level
                if state.controller.escalate_to(platform_target):
                    self.degrades += 1
                    outcome.degraded.append(
                        (name, old_level, state.controller.level)
                    )
                    outcome.changed_platforms.add(name)
            if config.dvfs:
                # Scale each platform's observed service rate by how
                # much hotter the fleet forecast runs than the fleet
                # observation, so gating anticipates the trend without
                # assuming how the dispatcher splits traffic.
                trend = (
                    provision_rps / observed_rps if observed_rps > 0 else 1.0
                )
                self._plan_frequency(name, state, trend, outcome)
        return outcome

    # -- per-tick actions ------------------------------------------------
    def _target_level(self, provision_rps: float, states) -> int:
        """The shallowest ladder level whose fleet capacity clears the
        inflated provisioning rate."""
        if self._total_cap0 <= 0 or not states:
            return 0
        rho = provision_rps * self.config.headroom / self._total_cap0
        max_target = max(states[name].ladder.max_level for name in states)
        target = 0
        while target < max_target and LEVEL_CAPACITY_GROWTH**target < rho:
            target += 1
        return target

    def _prewarm(
        self, name: str, state, platform_target: int, outcome: TickOutcome
    ) -> None:
        """Plant plan-cache entries for the levels we predict needing:
        everything between the platform's current position and the
        target plus the configured lookahead."""
        ladder = state.ladder
        high = min(
            platform_target + self.config.lookahead_levels, ladder.max_level
        )
        for level in range(state.controller.level + 1, high + 1):
            specs = ladder.prewarm_specs([level])
            if not specs:
                continue  # already materialized (or out of range)
            results = state.deployment.engine.prewarm(specs)
            hits = sum(1 for hit in results.values() if hit)
            self.prewarm_requested += len(results)
            self.prewarm_hits += hits
            self.prewarm_misses += len(results) - hits
            outcome.prewarmed.append((name, level, specs[0][1]))

    def _plan_frequency(
        self, name: str, state, trend: float, outcome: TickOutcome
    ) -> None:
        """Command the lowest frequency whose scaled capacity still
        clears this platform's *own* observed service rate (times the
        fleet trend and the headroom factor).

        The per-platform observation matters: the dispatcher splits
        traffic by satisfaction score, not by capacity share, so a
        capacity-proportional gate would throttle exactly the platform
        the dispatcher leans on.  Two more guardrails keep the gate
        from fighting the dispatcher: a platform with a non-empty
        queue is never gated below nominal (backlog needs surplus, not
        matched capacity), and moves are asymmetric -- ramps *up* jump
        straight to the needed frequency (under-clocking into a burst
        loses deadlines) while ramps *down* step one ladder position
        per tick (a mispredicted trough then costs at most one rung of
        capacity for one tick).
        """
        served_rate = (
            (state.requests_served - self._served.get(name, 0))
            / self.config.tick_s
        )
        self._served[name] = state.requests_served
        nominal = len(DEFAULT_FREQUENCY_LADDER) - 1
        current = self._freq_index[name]
        if state.queue or state.inflight is not None:
            desired = nominal  # backlog: surge to full clock
        else:
            needed_rps = served_rate * trend * self.config.dvfs_headroom
            level_cap = self._cap0[name] * (
                LEVEL_CAPACITY_GROWTH ** state.controller.level
            )
            desired = nominal
            for i, relative in enumerate(DEFAULT_FREQUENCY_LADDER):
                if relative * level_cap >= needed_rps:
                    desired = i
                    break
        if desired > current:
            index = desired
        elif desired < current:
            index = current - 1
        else:
            return
        self._freq_index[name] = index
        relative = DEFAULT_FREQUENCY_LADDER[index]
        state.frequency = (
            None if index == nominal else FrequencyState(relative)
        )
        self.dvfs_move_count += 1
        outcome.dvfs_moves.append((name, relative))
        outcome.changed_platforms.add(name)

    # -- reporting -------------------------------------------------------
    @property
    def mean_abs_error_rps(self) -> float:
        """Mean absolute fleet-level one-tick-ahead forecast error."""
        if not self.errors:
            return 0.0
        return ordered_sum(self.errors) / len(self.errors)

    def report_section(self) -> dict:
        """The plain-data ``control`` section a report embeds.

        JSON-serializable, keys sorted where order matters.  The
        prewarm hit/miss split depends on engine cache temperature and
        is stripped by ``RouterReport.fingerprint`` (``requested``
        stays -- it is routing behaviour).
        """
        config = self.config
        tenants = {}
        for name in sorted(self._forecasters):
            forecaster = self._forecasters[name]
            tenants[name] = {
                "observations": forecaster.observations,
                "mean_rate_rps": forecaster.mean_rate,
                "mae_rps": forecaster.mae,
            }
        return {
            "kind": config.kind,
            "tick_s": config.tick_s,
            "horizon_ticks": config.horizon_ticks,
            "ticks": self.ticks,
            "mean_abs_error_rps": self.mean_abs_error_rps,
            "prewarm": {
                "requested": self.prewarm_requested,
                "hits": self.prewarm_hits,
                "misses": self.prewarm_misses,
            },
            "degrades": self.degrades,
            "dvfs_moves": self.dvfs_move_count,
            "tenants": tenants,
        }
