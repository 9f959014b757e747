"""Structured router events.

Every decision the router takes -- admission, rejection, dispatch,
degradation moves, completions, and the compiles and cache hits the
fleet's engines relay to it -- is one event of a kind in
:data:`EVENT_KINDS`, with a simulated timestamp and a monotone
sequence number.  The log is the router's audit trail: reports are
aggregations over it plus the completion records, and the determinism
guarantee is asserted by fingerprinting it.  A report keeps its log as
rows in its :class:`~repro.serving.ledger.Ledger`; reading
``report.events`` builds a new list of :class:`RouterEvent` from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

__all__ = ["EVENT_KINDS", "RouterEvent"]


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
EVENT_KINDS = (
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
