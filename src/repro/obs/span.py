"""Tracing spans: sim-clock-timestamped, nested, append-only.

The observability layer's unit of "what happened when" is a
:class:`Span`: a named interval on the *simulated* clock with
structured attributes and an explicit parent, forming well-nested
trees (a child's interval is contained in its parent's).  Spans are
produced by a :class:`Tracer` and recorded, in closing order, into an
append-only :class:`TraceBuffer`.

A buffer keeps closed spans as rows grouped by shape (name plus
attribute keys); a :class:`Span` is built only when a caller iterates,
indexes or filters it, and every export writes its bytes from the rows
through :mod:`repro.obs.jsontext`.

Determinism is the design constraint everything here serves:

* timestamps are always the caller's sim time -- the tracer never
  reads a clock of its own (REP001);
* span ids are dense sequence numbers in *open* order, so two
  same-seed runs assign identical ids;
* every export iterates in sorted/sequential order (REP003), and
  :meth:`TraceBuffer.fingerprint` canonicalizes away the only
  permitted divergence between same-seed runs (engine cache
  temperature -- see :data:`CACHE_SENSITIVE_SPANS`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs.jsontext import Texts, literal, template

__all__ = [
    "SPAN_NAMES",
    "CACHE_SENSITIVE_SPANS",
    "Span",
    "Tracer",
    "TraceBuffer",
]

#: The span taxonomy.  ``run``/``platform`` are the structural roots
#: one routing run opens; ``request`` spans one request arrival ->
#: terminal outcome; ``admission``/``dispatch``/``retry`` are instant
#: decision marks; ``execute_batch`` covers a batch launch -> finish;
#: ``compile``/``plan_cache_lookup`` are the compiles and cache hits
#: the execution engine relays to the run; ``fault_episode`` brackets
#: an injected fault's begin/end pair; ``control_tick``/``prewarm``
#: are instant marks of the predictive control plane's cadence
#: firings and plan-cache pre-warms; ``supervise`` is the
#: coordinator's zero-width record of one shard's supervision history
#: (attempts, failures) in the stitched fleet trace.
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


def _unknown_name(name: str) -> ValueError:
    return ValueError(
        "unknown span name %r (known: %s)" % (name, ", ".join(SPAN_NAMES))
    )


def _check_child(name: str, time_s, parent_name: str, parent_start_s) -> None:
    if time_s < parent_start_s:
        raise ValueError(
            "span %r begins at %r, before its parent %r began at %r"
            % (name, time_s, parent_name, parent_start_s)
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _problem(span: Span, ids: Set[int]) -> Optional[str]:
    """What keeps a span from outside out of a trace holding ``ids``."""
    if span.name not in SPAN_NAMES:
        return "name: %s" % _unknown_name(span.name)
    if not _is_int(span.span_id):
        return "span_id must be an int, got %r" % (span.span_id,)
    if span.parent_id is not None and not _is_int(span.parent_id):
        return "parent_id must be an int, got %r" % (span.parent_id,)
    if span.span_id in ids:
        return "span_id %r is already in the trace" % span.span_id
    for field in ("start_s", "end_s"):
        value = getattr(span, field)
        number = _is_int(value) or isinstance(value, float)
        if not number or not math.isfinite(value):
            return "%s must be a finite number, got %r" % (field, value)
    if span.end_s < span.start_s:
        return "end_s %r is before start_s %r" % (span.end_s, span.start_s)
    if not isinstance(span.attrs, Mapping) or not all(
        isinstance(key, str) for key in span.attrs
    ):
        return "attrs must be a mapping with string keys"
    return None


class TraceBuffer:
    """Append-only store of closed spans (in closing order), as rows
    ``(span_id, parent_id, start_s, end_s, *attribute values)`` grouped
    by shape.  :meth:`add` checks a span from outside (loaded, stitched);
    :meth:`write` is a :class:`Tracer`'s row path, checked as it goes."""

    def __init__(self) -> None:
        #: ``(name, attribute keys)`` per shape, in first-use order.
        self._shapes: List[Tuple[str, Tuple[str, ...]]] = []
        self._shape_index: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        #: Per shape, its rows in closing order.
        self._rows: List[List[tuple]] = []
        #: The shape of every span, in closing order.
        self._order: List[int] = []
        #: Span ids :meth:`add` has checked for duplicates.
        self._ids: Set[int] = set()

    def write(self, name: str, keys: Tuple[str, ...], row: tuple) -> None:
        """Append one closed span as a row whose attribute values follow
        ``keys``.  Only the shape is checked, once, when it is first
        seen: a known name and no key twice (one would be a duplicate
        JSON key in every export)."""
        shape = self._shape_index.get((name, keys))
        if shape is None:
            if name not in SPAN_NAMES:
                raise _unknown_name(name)
            if len(set(keys)) != len(keys):
                repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
                raise ValueError(
                    "span %r sets attribute %r twice" % (name, repeated)
                )
            shape = self._shape_index[(name, keys)] = len(self._shapes)
            self._shapes.append((name, keys))
            self._rows.append([])
        self._rows[shape].append(row)
        self._order.append(shape)

    def add(self, span: Span) -> Span:
        """Append one closed span after checking it; returns it.

        A malformed span -- an unknown name, a non-int or duplicate
        ``span_id``, a non-int ``parent_id``, a start or end that is not
        a finite number or an end before the start, attributes without
        string keys -- raises ``ValueError`` naming its position in the
        buffer and the field.
        """
        if len(self._ids) != len(self):  # a tracer has written rows
            self._ids = {row[0] for rows in self._rows for row in rows}
        problem = _problem(span, self._ids)
        if problem is not None:
            raise ValueError("span %d: %s" % (len(self), problem))
        self._ids.add(span.span_id)
        row = (span.span_id, span.parent_id, span.start_s, span.end_s)
        self.write(span.name, tuple(span.attrs), row + tuple(span.attrs.values()))
        return span

    def _span(self, shape: int, row: tuple) -> Span:
        name, keys = self._shapes[shape]
        return Span(row[0], row[1], name, row[2], row[3], dict(zip(keys, row[4:])))

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Span]:
        rows = [iter(rows) for rows in self._rows]
        for shape in self._order:
            yield self._span(shape, next(rows[shape]))

    def __getitem__(self, index: int) -> Span:
        position = range(len(self._order))[index]
        shape = self._order[position]
        row = self._rows[shape][self._order[:position].count(shape)]
        return self._span(shape, row)

    def _spans_where(self, keep) -> List[Span]:
        """Spans of the rows ``keep(name, row)`` accepts, in id order."""
        spans = [
            self._span(shape, row)
            for shape, (name, _keys) in enumerate(self._shapes)
            for row in self._rows[shape]
            if keep(name, row)
        ]
        return sorted(spans, key=_span_id)

    def of_name(self, name: str) -> List[Span]:
        """All spans of one taxonomy name, in id order."""
        if name not in SPAN_NAMES:
            raise _unknown_name(name)
        return self._spans_where(lambda span_name, _row: span_name == name)

    @property
    def counts(self) -> Dict[str, int]:
        """Span counts per taxonomy name (zero-count names included)."""
        counts = {name: 0 for name in SPAN_NAMES}
        for (name, _keys), rows in zip(self._shapes, self._rows):
            counts[name] += len(rows)
        return counts

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        """Direct children of one span id (None: the roots)."""
        return self._spans_where(lambda _name, row: row[1] == span_id)

    def columns(self) -> List[Tuple[str, Tuple[str, ...], List[tuple]]]:
        """Every non-empty shape as ``(name, attribute keys, columns)``:
        span ids, parent ids, starts, ends, then one column per key,
        rows in closing order."""
        return [
            (name, keys, list(zip(*rows)))
            for (name, keys), rows in zip(self._shapes, self._rows)
            if rows
        ]

    # -- export ----------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """Every span as plain data (:meth:`Span.to_dict`), ordered by
        span id.

        Id order (= open order) rather than append order (= close
        order) so the export reads as a chronologically opened tree;
        both orders are deterministic.
        """
        return [span.to_dict() for span in sorted(self, key=_span_id)]

    def _write_json(self, shapes: List[tuple]) -> str:
        """Canonical JSON of spans given as columns, in span id order:
        ``json.dumps`` of their :meth:`Span.to_dict` list."""
        texts = Texts()
        ids: List[int] = []
        out: List[str] = []
        for name, keys, (span_ids, parents, starts, ends, *values) in shapes:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            row = (
                '{"attrs":%s,"end_s":%%s,"name":%s,"parent_id":%%s,'
                '"span_id":%%s,"start_s":%%s}'
                % (template([keys[i] for i in order]), literal(name))
            )
            columns = [texts.column(values[i]) for i in order] + [
                texts.column(column) for column in (ends, parents, span_ids, starts)
            ]
            out += map(row.__mod__, zip(*columns))
            ids += span_ids
        ranked = sorted(range(len(ids)), key=ids.__getitem__)
        return "[%s]" % ",".join([out[i] for i in ranked])

    def to_json(self) -> str:
        """Canonical JSON of :meth:`to_dicts` (sorted keys, compact)."""
        return self._write_json(self.columns())

    @classmethod
    def from_dicts(cls, dicts: Sequence[Mapping[str, object]]) -> "TraceBuffer":
        """Rebuild a buffer from :meth:`to_dicts` output; the
        round-trip ``from_dicts(b.to_dicts()).to_json() == b.to_json()``
        is bit-exact.

        Every span is checked as :meth:`add` checks it, and every
        ``parent_id`` must name a span of the trace; a malformed input
        raises ``ValueError`` naming the span's index and field.
        """
        buffer = cls()
        for index, data in enumerate(dicts):
            try:
                span = Span.from_dict(data)
            except KeyError as missing:
                raise ValueError(
                    "span %d: missing field %s" % (index, missing)
                ) from None
            buffer.add(span)
        for index, data in enumerate(dicts):
            parent = data["parent_id"]
            if parent is not None and parent not in buffer._ids:
                raise ValueError(
                    "span %d: parent_id %r names no span in the trace"
                    % (index, parent)
                )
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
        dropped: Dict[int, Optional[int]] = {}
        kept = []
        for name, keys, columns in self.columns():
            if name in CACHE_SENSITIVE_SPANS:
                dropped.update(zip(columns[0], columns[1]))
            else:
                kept.append((name, keys, columns))
        survivors = sorted(chain.from_iterable(shape[2][0] for shape in kept))
        renumber = dict(zip(survivors, range(len(survivors))))

        def surviving_parent(parent_id: Optional[int]) -> Optional[int]:
            # A dropped span's children re-parent onto its nearest
            # surviving ancestor, so the tree stays connected.
            while parent_id is not None and parent_id not in renumber:
                parent_id = dropped[parent_id]
            return None if parent_id is None else renumber[parent_id]

        payload = self._write_json([
            (name, keys, [
                list(map(renumber.__getitem__, columns[0])),
                list(map(surviving_parent, columns[1])),
                *columns[2:],
            ])
            for name, keys, columns in kept
        ])
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _span_id(span: Span) -> int:
    return span.span_id


class Tracer:
    """Writes spans into a :class:`TraceBuffer` against an explicit sim
    clock, from plain tuples: no per-span object.

    All times are caller-supplied simulated seconds.  :meth:`open_row`
    and :meth:`instant_row` issue span ids densely in open order and
    check that a child starts no earlier than its parent; :meth:`close_row`
    checks that the row is open and ends no earlier than it began, and
    the buffer rejects an unknown name or a repeated attribute key when
    the row is written.
    """

    def __init__(self, buffer: Optional[TraceBuffer] = None) -> None:
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self._next_id = 0
        #: Ids of the rows opened and not yet closed.
        self._open: Set[int] = set()

    @property
    def open_spans(self) -> int:
        """Span ids issued whose rows are not yet closed."""
        return len(self._open)

    def open_row(
        self, name: str, time_s: float, parent: Optional[tuple] = None,
        keys: Tuple[str, ...] = (), values: tuple = (),
    ) -> tuple:
        """Open a span as ``(span_id, parent_id, start_s, name, keys,
        values)``; ``parent`` is another open row, or None."""
        if parent is not None:
            _check_child(name, time_s, parent[3], parent[2])
        span_id = self._next_id
        self._next_id = span_id + 1
        self._open.add(span_id)
        parent_id = None if parent is None else parent[0]
        return (span_id, parent_id, time_s, name, keys, values)

    def close_row(
        self, row: tuple, time_s: float, keys: Tuple[str, ...] = (),
        values: tuple = (),
    ) -> None:
        """Close an open row at ``time_s``, adding attributes ``keys``
        (none of them already set) with ``values``."""
        span_id, parent_id, start_s, name, open_keys, open_values = row
        if span_id not in self._open:
            raise ValueError("span %d (%r) is not open" % (span_id, name))
        if time_s < start_s:
            raise ValueError("span %r ends at %r, before it began at %r"
                             % (name, time_s, start_s))
        self.buffer.write(
            name, open_keys + keys,
            (span_id, parent_id, start_s, time_s) + open_values + values,
        )
        self._open.remove(span_id)

    def instant_row(
        self, name: str, time_s: float, parent: Optional[tuple] = None,
        keys: Tuple[str, ...] = (), values: tuple = (),
    ) -> None:
        """Record a zero-duration span (a point decision) as one row."""
        if parent is not None:
            _check_child(name, time_s, parent[3], parent[2])
        span_id = self._next_id
        self._next_id = span_id + 1
        parent_id = None if parent is None else parent[0]
        self.buffer.write(name, keys, (span_id, parent_id, time_s, time_s) + values)
