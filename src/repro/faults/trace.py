"""Seeded fault-trace generation.

:func:`generate_fault_trace` turns a :class:`FaultTraceConfig` -- how
many episodes of each fault class to inject, how severe, how long --
into a concrete, bit-reproducible :class:`~repro.faults.events.FaultTrace`
over a set of platforms and a time horizon.  All randomness flows
through one ``numpy`` generator seeded by the caller, and every draw
happens in a fixed order (fault class by fault class, episode by
episode), so the same ``(config, platforms, horizon, seed)`` quadruple
yields a bit-identical event stream -- the property the robustness
suite pins down.

Episode placement: starts are drawn uniformly over the first
``start_window`` fraction of the horizon (so episodes land while
traffic is still arriving), durations uniformly in ``[0.5, 1.5]``
times the configured mean.  End events may land past the horizon;
the router simply processes them after the last arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.faults.events import EPISODE_KINDS, FaultEvent, FaultTrace
from repro.validation import require_finite

__all__ = ["FaultTraceConfig", "generate_fault_trace"]


@dataclass(frozen=True)
class FaultTraceConfig:
    """How much chaos to inject, per fault class.

    Counts are episode (or point-event) totals over the whole trace;
    severities and durations parameterize every episode of the class.
    """

    outages: int = 0
    outage_duration_s: float = 2.0
    sm_failures: int = 0
    sm_fail_fraction: float = 0.5
    sm_failure_duration_s: float = 2.0
    throttles: int = 0
    throttle_frequency: float = 0.6
    throttle_duration_s: float = 2.0
    bandwidth_degradations: int = 0
    bandwidth_scale: float = 0.5
    bandwidth_duration_s: float = 2.0
    transients: int = 0
    #: Episode starts are drawn in ``[0, start_window * horizon]``.
    start_window: float = 0.7

    def __post_init__(self) -> None:
        # A NaN duration would schedule its restore event at NaN.
        require_finite(**vars(self))
        for field_name in (
            "outages", "sm_failures", "throttles",
            "bandwidth_degradations", "transients",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(
                    "%s must be non-negative, got %r"
                    % (field_name, getattr(self, field_name))
                )
        for field_name in (
            "outage_duration_s", "sm_failure_duration_s",
            "throttle_duration_s", "bandwidth_duration_s",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(
                    "%s must be positive, got %r"
                    % (field_name, getattr(self, field_name))
                )
        if not 0.0 < self.sm_fail_fraction < 1.0:
            raise ValueError(
                "sm_fail_fraction must be in (0, 1), got %r"
                % (self.sm_fail_fraction,)
            )
        if not 0.0 < self.throttle_frequency < 1.0:
            raise ValueError(
                "throttle_frequency must be in (0, 1), got %r"
                % (self.throttle_frequency,)
            )
        if not 0.0 < self.bandwidth_scale < 1.0:
            raise ValueError(
                "bandwidth_scale must be in (0, 1), got %r"
                % (self.bandwidth_scale,)
            )
        if not 0.0 < self.start_window <= 1.0:
            raise ValueError(
                "start_window must be in (0, 1], got %r"
                % (self.start_window,)
            )

    @property
    def n_events(self) -> int:
        """Total events the config will emit (episodes count twice)."""
        episodes = (
            self.outages + self.sm_failures + self.throttles
            + self.bandwidth_degradations
        )
        return 2 * episodes + self.transients


def generate_fault_trace(
    platforms: Sequence[str],
    horizon_s: float,
    config: FaultTraceConfig,
    seed: int = 0,
) -> FaultTrace:
    """Draw one concrete fault schedule from a config (seeded).

    ``platforms`` are the router's deployment names; each episode picks
    its victim uniformly from the sorted list so iteration order of the
    caller's container cannot perturb the stream.
    """
    if not platforms:
        raise ValueError("fault trace needs at least one platform")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive, got %r" % (horizon_s,))
    names = sorted(set(platforms))
    rng = np.random.default_rng(seed)
    events: List[FaultEvent] = []
    episode = 0

    def draw_episode(kind: str, mean_duration_s: float, **severity) -> None:
        nonlocal episode
        platform = names[int(rng.integers(len(names)))]
        start = float(rng.uniform(0.0, config.start_window * horizon_s))
        duration = float(mean_duration_s * rng.uniform(0.5, 1.5))
        events.append(
            FaultEvent(
                time_s=start, kind=kind, platform=platform,
                episode=episode, **severity,
            )
        )
        events.append(
            FaultEvent(
                time_s=start + duration,
                kind=EPISODE_KINDS[kind],
                platform=platform,
                episode=episode,
            )
        )
        episode += 1

    for _ in range(config.outages):
        draw_episode("outage", config.outage_duration_s)
    for _ in range(config.sm_failures):
        draw_episode(
            "sm_fail", config.sm_failure_duration_s,
            sm_fail_fraction=config.sm_fail_fraction,
        )
    for _ in range(config.throttles):
        draw_episode(
            "throttle", config.throttle_duration_s,
            relative_frequency=config.throttle_frequency,
        )
    for _ in range(config.bandwidth_degradations):
        draw_episode(
            "bw_degrade", config.bandwidth_duration_s,
            bandwidth_scale=config.bandwidth_scale,
        )
    for _ in range(config.transients):
        platform = names[int(rng.integers(len(names)))]
        start = float(rng.uniform(0.0, config.start_window * horizon_s))
        events.append(
            FaultEvent(time_s=start, kind="transient", platform=platform)
        )
    return FaultTrace(events)
