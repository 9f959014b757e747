"""Fault events and fault traces.

A :class:`FaultEvent` is one timed perturbation of one platform's
hardware health: a full outage, an SM failure, a thermal-throttle
episode, a DRAM-bandwidth degradation, or a transient batch-level
execution failure.  A :class:`FaultTrace` is an ordered, immutable
stream of such events -- the chaos schedule one routing run is
subjected to.  Traces are plain data: they carry no randomness of
their own, so the same trace replayed against the same router and
workload is bit-identical (asserted via :meth:`FaultTrace.fingerprint`,
the same SHA-1-over-canonical-JSON convention the router report uses).

Episode faults come in begin/end pairs (``outage``/``restore``,
``sm_fail``/``sm_recover``, ``throttle``/``throttle_end``,
``bw_degrade``/``bw_recover``) linked by an ``episode`` id;
``transient`` is a point event that dooms the *next* batch dispatched
on the platform.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

__all__ = ["FAULT_KINDS", "EPISODE_KINDS", "FaultEvent", "FaultTrace"]

#: Episode-opening kinds and the matching closing kind.
EPISODE_KINDS = {
    "outage": "restore",
    "sm_fail": "sm_recover",
    "throttle": "throttle_end",
    "bw_degrade": "bw_recover",
}

#: The full fault vocabulary (openers, closers, and the point event).
FAULT_KINDS = (
    tuple(EPISODE_KINDS)
    + tuple(EPISODE_KINDS.values())
    + ("transient",)
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed hardware perturbation on one platform.

    Attributes
    ----------
    time_s:
        Simulated injection time.
    kind:
        One of :data:`FAULT_KINDS`.
    platform:
        The deployment name (the router's platform key) the fault hits.
    sm_fail_fraction:
        For ``sm_fail``: the fraction of the platform's SMs lost.  The
        concrete count is resolved against the base architecture by
        :class:`~repro.faults.health.PlatformHealth` (at least one SM
        always survives).
    relative_frequency:
        For ``throttle``: the DVFS operating point the thermal governor
        pins the platform to, as a fraction of nominal (drives
        :class:`~repro.gpu.dvfs.FrequencyState` scaling).
    bandwidth_scale:
        For ``bw_degrade``: the fraction of nominal DRAM bandwidth
        left available.
    episode:
        Links an episode's begin and end events (-1 for point events).
    """

    time_s: float
    kind: str
    platform: str
    sm_fail_fraction: float = 0.0
    relative_frequency: float = 1.0
    bandwidth_scale: float = 1.0
    episode: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (known: %s)"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if self.time_s < 0:
            raise ValueError("time_s must be non-negative, got %r" % (self.time_s,))
        if not self.platform:
            raise ValueError("fault event needs a platform name")
        if not 0.0 <= self.sm_fail_fraction < 1.0:
            raise ValueError(
                "sm_fail_fraction must be in [0, 1), got %r"
                % (self.sm_fail_fraction,)
            )
        if not 0.0 < self.relative_frequency <= 1.0:
            raise ValueError(
                "relative_frequency must be in (0, 1], got %r"
                % (self.relative_frequency,)
            )
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise ValueError(
                "bandwidth_scale must be in (0, 1], got %r"
                % (self.bandwidth_scale,)
            )

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "platform": self.platform,
            "sm_fail_fraction": self.sm_fail_fraction,
            "relative_frequency": self.relative_frequency,
            "bandwidth_scale": self.bandwidth_scale,
            "episode": self.episode,
        }


class FaultTrace:
    """An ordered, immutable schedule of fault events.

    Events are stored sorted by ``(time_s, platform, kind, episode)``
    so construction order cannot perturb replay order; the router adds
    its own monotone sequence numbers when it enqueues them.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(
                events,
                key=lambda e: (e.time_s, e.platform, e.kind, e.episode),
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> FaultEvent:
        return self.events[index]

    @property
    def platforms(self) -> List[str]:
        """Every platform the trace touches, sorted."""
        return sorted({event.platform for event in self.events})

    @property
    def horizon_s(self) -> float:
        """The last event's injection time (0 for an empty trace)."""
        if not self.events:
            return 0.0
        return self.events[-1].time_s

    def of_kind(self, kind: str) -> List[FaultEvent]:
        """All events of one kind, in replay order."""
        if kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (known: %s)"
                % (kind, ", ".join(FAULT_KINDS))
            )
        return [event for event in self.events if event.kind == kind]

    def merged_with(self, *others: "FaultTrace") -> "FaultTrace":
        """A new trace combining this one with ``others`` (re-sorted)."""
        events: List[FaultEvent] = list(self.events)
        for other in others:
            events.extend(other.events)
        return FaultTrace(events)

    def to_dicts(self) -> List[dict]:
        """The whole trace as plain data (JSON-serializable)."""
        return [event.to_dict() for event in self.events]

    def fingerprint(self) -> str:
        """SHA-1 over the canonical JSON of the event stream: two
        traces are bit-identical iff these match."""
        payload = json.dumps(
            self.to_dicts(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()
