"""Deterministic exporters: JSON, Prometheus text, Chrome trace_event.

Three serializations of the same observations:

* :func:`trace_to_json` / :func:`metrics_to_json` -- canonical
  (sorted, compact) JSON; byte-identical across same-seed runs and
  round-trippable through ``TraceBuffer.from_json``.
* :func:`prometheus_text` -- the text exposition format scrape
  endpoints speak (``# HELP`` / ``# TYPE`` / cumulative ``_bucket``
  lines), families and series in sorted order.
* :func:`chrome_trace_json` -- the Chrome ``trace_event`` JSON-array
  format, so a routing run opens directly in Perfetto or
  ``chrome://tracing``: duration spans become complete (``"X"``)
  events, sim seconds become microsecond timestamps, and each
  platform gets its own track (tid) under one process (pid).

The span exports write their bytes from the buffer's columns; an
``indent`` re-renders those compact bytes through ``json``.

:func:`validate_chrome_trace` is the schema check the benchmark and
tests assert -- it verifies the invariants Perfetto's importer relies
on without needing Perfetto itself.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from repro.obs.jsontext import Texts, dumps, literal, template
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import TraceBuffer

__all__ = [
    "trace_to_json",
    "metrics_to_json",
    "prometheus_text",
    "chrome_trace",
    "chrome_trace_json",
    "validate_chrome_trace",
]

#: The single synthetic process id all tracks live under.
_PID = 1

#: Track (tid) reserved for spans with no platform attribute.
_ROUTER_TID = 0


def _indented(compact: str, indent: Optional[int]) -> str:
    """Canonical JSON re-rendered with ``indent`` (None: as is)."""
    if indent is None:
        return compact
    return json.dumps(json.loads(compact), sort_keys=True, indent=indent)


def trace_to_json(buffer: TraceBuffer, indent: Optional[int] = None) -> str:
    """Canonical JSON of a trace buffer (sorted keys, stable order)."""
    return _indented(buffer.to_json(), indent)


def metrics_to_json(
    registry: MetricsRegistry, indent: Optional[int] = None
) -> str:
    """Canonical JSON of a metrics snapshot."""
    return json.dumps(
        registry.snapshot(),
        sort_keys=True,
        indent=indent,
        separators=(",", ":") if indent is None else None,
    )


def _format_value(value: float) -> str:
    """Prometheus sample rendering (ints without a trailing .0)."""
    if isinstance(value, float) and value.is_integer() and math.isfinite(value):
        return "%d" % int(value)
    return "%.12g" % value


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Families sorted by name, series sorted by label set; histograms
    expose cumulative ``_bucket{le=...}`` plus ``_sum`` and
    ``_count``, matching the upper-inclusive bucket convention.
    """
    by_family: Dict[str, List] = {}
    for name, labels, instrument in registry.series():
        by_family.setdefault(name, []).append((labels, instrument))
    lines = []
    for name, kind, help_text in registry.families():
        if help_text:
            lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, kind))
        for labels, instrument in by_family.get(name, []):
            label_text = ",".join(
                '%s="%s"' % (key, value) for key, value in labels
            )
            if kind in ("counter", "gauge"):
                lines.append(
                    "%s%s %s"
                    % (
                        name,
                        "{%s}" % label_text if label_text else "",
                        _format_value(instrument.value),
                    )
                )
                continue
            for edge, cumulative_count in instrument.cumulative():
                le = "+Inf" if math.isinf(edge) else "%.12g" % edge
                bucket_labels = (
                    label_text + "," if label_text else ""
                ) + 'le="%s"' % le
                lines.append(
                    "%s_bucket{%s} %d" % (name, bucket_labels, cumulative_count)
                )
            suffix = "{%s}" % label_text if label_text else ""
            lines.append(
                "%s_sum%s %s" % (name, suffix, _format_value(instrument.sum))
            )
            lines.append("%s_count%s %d" % (name, suffix, instrument.count))
    return "\n".join(lines) + "\n"


def chrome_trace(buffer: TraceBuffer) -> dict:
    """The trace as a Chrome ``trace_event`` object (parsed
    :func:`chrome_trace_json`)."""
    return json.loads(chrome_trace_json(buffer))


def _platform_tids(shapes) -> Dict[str, int]:
    """Per-platform Chrome tracks: ``str(platform)`` numbered from 1 in
    order of first appearance in span id order."""
    first: Dict[str, int] = {}
    for _name, keys, columns in shapes:
        if "platform" in keys:
            platforms = columns[4 + keys.index("platform")]
            for span_id, platform in zip(columns[0], platforms):
                if platform is not None:
                    key = str(platform)
                    if first.setdefault(key, span_id) > span_id:
                        first[key] = span_id
    return {key: tid for tid, key in enumerate(sorted(first, key=first.get), 1)}


def chrome_trace_json(buffer: TraceBuffer, indent: Optional[int] = None) -> str:
    """The trace as Chrome ``trace_event`` JSON (sorted keys).

    Every span becomes one complete (``"X"``) event; instant spans get
    the 1-microsecond minimum duration Perfetto renders.  ``args`` are
    the attributes plus ``span_id`` and (unless a root) ``parent_id``,
    which win over attributes of those names.  Metadata events name the
    process and the per-platform threads; a span without a ``platform``
    renders on the router track.  Timestamps are sim-clock
    microseconds -- the sim origin is ``ts=0``.
    """
    shapes = buffer.columns()
    tids = _platform_tids(shapes)
    texts = Texts()
    ids: List[int] = []
    out: List[str] = []
    for name, keys, (span_ids, parents, starts, ends, *values) in shapes:
        ts = [start * 1e6 for start in starts]
        dur = [max((end - start) * 1e6, 1.0) for start, end in zip(starts, ends)]
        tid = [_ROUTER_TID] * len(span_ids)
        if "platform" in keys:
            tid = [
                _ROUTER_TID if platform is None else tids[str(platform)]
                for platform in values[keys.index("platform")]
            ]
        for rooted in (True, False):
            rows = [
                index for index, parent in enumerate(parents)
                if (parent is None) == rooted
            ]
            if not rows:
                continue
            args = dict(zip(keys, values))
            args["span_id"] = span_ids
            if not rooted:
                args["parent_id"] = parents
            arg_keys = sorted(args)
            event = (
                '{"args":%s,"cat":"repro","dur":%%s,"name":%s,"ph":"X",'
                '"pid":%d,"tid":%%s,"ts":%%s}'
                % (template(arg_keys), literal(name), _PID)
            )
            columns = [args[key] for key in arg_keys] + [dur, tid, ts]
            if len(rows) < len(span_ids):
                columns = [[column[i] for i in rows] for column in columns]
            out += map(event.__mod__, zip(*map(texts.column, columns)))
            ids += [span_ids[i] for i in rows]
    ranked = sorted(range(len(ids)), key=ids.__getitem__)
    threads = [(_ROUTER_TID, "router")]
    threads += [(tids[platform], platform) for platform in sorted(tids)]
    metadata = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": _ROUTER_TID,
        "args": {"name": "repro router (sim time)"},
    }] + [
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
         "args": {"name": thread}}
        for tid, thread in threads
    ]
    events = [dumps(entry) for entry in metadata] + [out[i] for i in ranked]
    compact = '{"displayTimeUnit":"ms","traceEvents":[%s]}' % ",".join(events)
    return _indented(compact, indent)


def validate_chrome_trace(data: object) -> List[str]:
    """Schema-check a Chrome trace object; returns the problems found.

    Asserts the invariants the Perfetto / ``chrome://tracing``
    importer needs: a ``traceEvents`` list whose entries carry a
    ``name``, a known phase, integer pid/tid, and -- for ``"X"``
    complete events -- non-negative numeric ``ts``/``dur``.  An empty
    list means the trace loads.
    """
    problems = []
    if not isinstance(data, dict):
        return ["top level must be an object, got %s" % type(data).__name__]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append("%s: missing name" % where)
        phase = event.get("ph")
        if phase not in ("X", "B", "E", "i", "I", "M", "C"):
            problems.append("%s: unknown phase %r" % (where, phase))
        for field in ("pid", "tid"):
            value = event.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append("%s: %s must be an int" % (where, field))
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    problems.append(
                        "%s: %s must be numeric" % (where, field)
                    )
                elif value < 0 or not math.isfinite(value):
                    problems.append(
                        "%s: %s must be finite and >= 0, got %r"
                        % (where, field, value)
                    )
        if "args" in event and not isinstance(event["args"], dict):
            problems.append("%s: args must be an object" % where)
    return problems
