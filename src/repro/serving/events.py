"""Structured router event log.

Every decision the router takes -- admission, rejection, dispatch,
degradation moves, completions, and the compiles and cache hits the
fleet's engines relay to it -- is one
:class:`RouterEvent` with a simulated timestamp and a monotone
sequence number.  The log is the router's audit trail: reports are
aggregations over it plus the completion records, and the determinism
guarantee is asserted by fingerprinting it.  A report keeps its log as
rows in its :class:`~repro.serving.ledger.Ledger` and builds an
:class:`EventLog` only when a caller reads ``report.events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["RouterEvent", "EventLog"]


@dataclass(frozen=True)
class RouterEvent:
    """One timestamped router decision."""

    seq: int
    time_s: float
    kind: str
    tenant: Optional[str] = None
    platform: Optional[str] = None
    request_ids: Tuple[int, ...] = ()
    detail: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return {
            "seq": self.seq,
            "time_s": self.time_s,
            "kind": self.kind,
            "tenant": self.tenant,
            "platform": self.platform,
            "request_ids": list(self.request_ids),
            "detail": {key: self.detail[key] for key in sorted(self.detail)},
        }


class EventLog:
    """Ordered, append-only collection of router events."""

    #: The event vocabulary.  ``enqueue``/``reject`` come from
    #: admission, ``dispatch``/``complete`` from the serving loop,
    #: ``degrade``/``restore`` from the degradation controllers, and
    #: ``compile``/``cache_hit`` are the compiles and cache hits the
    #: engines relay.
    #: The fault/resilience kinds: ``fault`` marks an injected
    #: :class:`~repro.faults.events.FaultEvent` being applied,
    #: ``batch_failed`` a dispatched batch that did not complete,
    #: ``retry`` a failed request re-entering admission after backoff,
    #: ``failover`` a request rescued off a dead platform, and the
    #: ``breaker_*`` kinds are circuit-breaker state transitions.
    #: The control-plane kinds: ``control_tick`` is one predictive
    #: controller cadence firing, ``prewarm`` a plan-cache entry
    #: planted ahead of need, and ``dvfs`` a commanded frequency move.
    KINDS = (
        "enqueue",
        "reject",
        "dispatch",
        "complete",
        "degrade",
        "restore",
        "compile",
        "cache_hit",
        "fault",
        "batch_failed",
        "retry",
        "failover",
        "breaker_open",
        "breaker_half_open",
        "breaker_close",
        "control_tick",
        "prewarm",
        "dvfs",
    )

    def __init__(self, events: Sequence[RouterEvent] = ()) -> None:
        """An empty log, or one holding ``events`` as they are (already
        numbered ``0..n-1``)."""
        self._events: List[RouterEvent] = list(events)
        unknown = [e.kind for e in self._events if e.kind not in self.KINDS]
        if unknown:
            self._check_kind(unknown[0])

    @classmethod
    def _check_kind(cls, kind: str) -> None:
        if kind not in cls.KINDS:
            raise ValueError(
                "unknown event kind %r (known: %s)"
                % (kind, ", ".join(cls.KINDS))
            )

    def record(
        self,
        kind: str,
        time_s: float,
        tenant: Optional[str] = None,
        platform: Optional[str] = None,
        request_ids: Tuple[int, ...] = (),
        **detail,
    ) -> RouterEvent:
        """Append one event; returns it."""
        self._check_kind(kind)
        event = RouterEvent(
            seq=len(self._events),
            time_s=time_s,
            kind=kind,
            tenant=tenant,
            platform=platform,
            request_ids=tuple(request_ids),
            detail=detail,
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RouterEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> RouterEvent:
        return self._events[index]

    def of_kind(self, kind: str) -> List[RouterEvent]:
        """All events of one kind, in order."""
        self._check_kind(kind)
        return [event for event in self._events if event.kind == kind]

    @property
    def counts(self) -> Dict[str, int]:
        """Event counts per kind (kinds with zero events included)."""
        counts = {kind: 0 for kind in self.KINDS}
        for event in self._events:
            counts[event.kind] += 1
        return counts

    def to_dicts(self) -> List[dict]:
        """The whole log as plain data (JSON-serializable)."""
        return [event.to_dict() for event in self._events]
