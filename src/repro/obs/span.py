"""Tracing spans: sim-clock-timestamped, nested, append-only.

The observability layer's unit of "what happened when" is a
:class:`Span`: a named interval on the *simulated* clock with
structured attributes and an explicit parent, forming well-nested
trees (a child's interval is contained in its parent's).  Spans are
produced by a :class:`Tracer` and recorded, in closing order, into an
append-only :class:`TraceBuffer`.

Determinism is the design constraint everything here serves:

* timestamps are always the caller's sim time -- the tracer never
  reads a clock of its own (REP001);
* span ids are dense sequence numbers in *begin* order, so two
  same-seed runs assign identical ids;
* every export iterates in sorted/sequential order (REP003), and
  :meth:`TraceBuffer.fingerprint` canonicalizes away the only
  permitted divergence between same-seed runs (engine cache
  temperature -- see :data:`CACHE_SENSITIVE_SPANS`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = [
    "SPAN_NAMES",
    "CACHE_SENSITIVE_SPANS",
    "Span",
    "SpanHandle",
    "Tracer",
    "TraceBuffer",
]

#: The span taxonomy.  ``run``/``platform`` are the structural roots
#: one routing run opens; ``request`` spans one request arrival ->
#: terminal outcome; ``admission``/``dispatch``/``retry`` are instant
#: decision marks; ``execute_batch`` covers a batch launch -> finish;
#: ``compile``/``plan_cache_lookup`` relay the execution engine's
#: hook-bus activity; ``calibration_backtrack`` marks the calibrator
#: stepping back down the tuning path; ``fault_episode`` brackets an
#: injected fault's begin/end pair; ``control_tick``/``prewarm`` are
#: instant marks of the predictive control plane's cadence firings and
#: plan-cache pre-warms; ``supervise`` is the coordinator's zero-width
#: record of one shard's supervision history (attempts, failures) in
#: the stitched fleet trace.
SPAN_NAMES = (
    "run",
    "platform",
    "request",
    "admission",
    "dispatch",
    "execute_batch",
    "retry",
    "compile",
    "plan_cache_lookup",
    "calibration_backtrack",
    "fault_episode",
    "control_tick",
    "prewarm",
    "supervise",
)

#: Span names whose presence/count depends on execution-environment
#: accidents rather than on routing behaviour: a warm plan cache
#: answers from storage instead of compiling, and supervision records
#: depend on host-level chaos (crashes, hangs) the sim never sees --
#: so none of these may feed same-seed fingerprint comparisons
#: (mirrors ``RouterReport._CACHE_KINDS``).
CACHE_SENSITIVE_SPANS = ("compile", "plan_cache_lookup", "supervise")


@dataclass(frozen=True)
class Span:
    """One closed, immutable span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float
    attrs: Mapping[str, object]

    @property
    def duration_s(self) -> float:
        """Interval length on the sim clock."""
        return self.end_s - self.start_s

    def contains(self, other: "Span") -> bool:
        """Whether ``other``'s interval sits inside this span's."""
        return self.start_s <= other.start_s and other.end_s <= self.end_s

    def to_dict(self) -> dict:
        """Plain-data view with a stable key order."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            start_s=data["start_s"],
            end_s=data["end_s"],
            attrs=dict(data["attrs"]),
        )


class SpanHandle:
    """One span that has begun but not yet ended; :meth:`Tracer.end`
    adds its closing attributes and freezes it into the buffer."""

    __slots__ = ("span_id", "parent_id", "name", "start_s", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_s: float,
        attrs: Dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.attrs = attrs


class TraceBuffer:
    """Append-only store of closed spans (in closing order)."""

    def __init__(self) -> None:
        self._spans: List[Span] = []

    def add(self, span: Span) -> Span:
        """Append one closed span; returns it."""
        self._spans.append(span)
        return span

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def __getitem__(self, index: int) -> Span:
        return self._spans[index]

    def of_name(self, name: str) -> List[Span]:
        """All spans of one taxonomy name, in id order."""
        if name not in SPAN_NAMES:
            raise ValueError(
                "unknown span name %r (known: %s)"
                % (name, ", ".join(SPAN_NAMES))
            )
        return sorted(
            (s for s in self._spans if s.name == name),
            key=lambda s: s.span_id,
        )

    @property
    def counts(self) -> Dict[str, int]:
        """Span counts per taxonomy name (zero-count names included)."""
        counts = {name: 0 for name in SPAN_NAMES}
        for span in self._spans:
            counts[span.name] += 1
        return counts

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        """Direct children of one span id (None: the roots)."""
        return sorted(
            (s for s in self._spans if s.parent_id == span_id),
            key=lambda s: s.span_id,
        )

    # -- export ----------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """Every span as plain data, ordered by span id.

        Id order (= begin order) rather than append order (= close
        order) so the export reads as a chronologically opened tree;
        both orders are deterministic.
        """
        return [
            span.to_dict()
            for span in sorted(self._spans, key=lambda s: s.span_id)
        ]

    def to_json(self) -> str:
        """Canonical JSON rendering of :meth:`to_dicts`."""
        return json.dumps(
            self.to_dicts(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dicts(cls, dicts: Sequence[Mapping[str, object]]) -> "TraceBuffer":
        """Rebuild a buffer from :meth:`to_dicts` output; the
        round-trip ``from_dicts(b.to_dicts()).to_json() == b.to_json()``
        is bit-exact."""
        buffer = cls()
        for data in dicts:
            buffer.add(Span.from_dict(data))
        return buffer

    @classmethod
    def from_json(cls, payload: str) -> "TraceBuffer":
        """Rebuild a buffer from :meth:`to_json` output."""
        return cls.from_dicts(json.loads(payload))

    def fingerprint(self) -> str:
        """SHA-1 over the cache-neutral canonical trace.

        Spans named in :data:`CACHE_SENSITIVE_SPANS` are dropped and
        the survivors' ids are densely renumbered (parents remapped),
        so a warm engine cache -- which removes compile spans and
        shifts every later span id -- does not change the fingerprint.
        Two same-seed runs are trace-identical iff these match.
        """
        by_id = {span.span_id: span for span in self._spans}
        survivors = [
            span
            for span in sorted(self._spans, key=lambda s: s.span_id)
            if span.name not in CACHE_SENSITIVE_SPANS
        ]
        renumber: Dict[int, int] = {
            span.span_id: index for index, span in enumerate(survivors)
        }

        def surviving_parent(parent_id: Optional[int]) -> Optional[int]:
            # A dropped span's children re-parent onto its nearest
            # surviving ancestor, so the tree stays connected.
            while parent_id is not None and parent_id not in renumber:
                parent_id = by_id[parent_id].parent_id
            return None if parent_id is None else renumber[parent_id]

        canonical = []
        for span in survivors:
            data = span.to_dict()
            data["span_id"] = renumber[span.span_id]
            data["parent_id"] = surviving_parent(span.parent_id)
            canonical.append(data)
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()


class Tracer:
    """Produces spans against an explicit sim clock.

    All times are caller-supplied simulated seconds.
    """

    def __init__(self, buffer: Optional[TraceBuffer] = None) -> None:
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self._next_id = 0
        self._open: Dict[int, SpanHandle] = {}

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended."""
        return len(self._open)

    def begin(
        self,
        name: str,
        time_s: float,
        parent: Optional[SpanHandle] = None,
        **attrs,
    ) -> SpanHandle:
        """Open a span at ``time_s``; returns its handle."""
        if name not in SPAN_NAMES:
            raise ValueError(
                "unknown span name %r (known: %s)"
                % (name, ", ".join(SPAN_NAMES))
            )
        parent_id = None
        if parent is not None:
            parent_id = parent.span_id
            if time_s < parent.start_s:
                raise ValueError(
                    "span %r begins at %r, before its parent %r began "
                    "at %r" % (name, time_s, parent.name, parent.start_s)
                )
        handle = SpanHandle(self._next_id, parent_id, name, time_s, dict(attrs))
        self._next_id += 1
        self._open[handle.span_id] = handle
        return handle

    def end(self, handle: SpanHandle, time_s: float, **attrs) -> Span:
        """Close a span at ``time_s``, recording it into the buffer."""
        if handle.span_id not in self._open:
            raise ValueError(
                "span %r (id %d) is not open" % (handle.name, handle.span_id)
            )
        if time_s < handle.start_s:
            raise ValueError(
                "span %r ends at %r, before it began at %r"
                % (handle.name, time_s, handle.start_s)
            )
        del self._open[handle.span_id]
        handle.attrs.update(attrs)
        span = Span(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            name=handle.name,
            start_s=handle.start_s,
            end_s=time_s,
            attrs=dict(handle.attrs),
        )
        return self.buffer.add(span)

    def instant(
        self,
        name: str,
        time_s: float,
        parent: Optional[SpanHandle] = None,
        **attrs,
    ) -> Span:
        """Record a zero-duration span (a point decision)."""
        return self.end(self.begin(name, time_s, parent=parent, **attrs), time_s)

    def emit(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[SpanHandle] = None,
        **attrs,
    ) -> Span:
        """Record a whole span in one call (start and end known)."""
        return self.end(self.begin(name, start_s, parent=parent, **attrs), end_s)

    def drain_open(self, time_s: float) -> List[Span]:
        """Close every still-open span at ``time_s`` (run teardown).

        Closed spans carry ``open_at_drain=True`` so analysis can tell
        a bracketed interval from one truncated by the end of the run
        (e.g. a fault episode the schedule never closed).  Handles are
        closed in id order for determinism.
        """
        closed = []
        for span_id in sorted(self._open):
            handle = self._open[span_id]
            end_time_s = max(time_s, handle.start_s)
            closed.append(self.end(handle, end_time_s, open_at_drain=True))
        return closed
