"""The span exports' byte-for-byte oracle.

``TraceBuffer`` keeps spans as rows and writes ``to_json``,
``fingerprint`` and the Chrome trace from them.  These are the
renderings they replaced: ``json.dumps`` over per-span dicts built
from :class:`Span` objects.  Tests assert the two agree.
"""

import hashlib
import json

from repro.obs.export import chrome_trace_json, trace_to_json
from repro.obs.span import CACHE_SENSITIVE_SPANS, Span

_PID = 1
_ROUTER_TID = 0


def _dumps(data, indent=None):
    return json.dumps(
        data,
        sort_keys=True,
        indent=indent,
        separators=(",", ":") if indent is None else None,
    )


def _by_id(buffer):
    return sorted(buffer, key=lambda span: span.span_id)


def oracle_dicts(buffer):
    return [span.to_dict() for span in _by_id(buffer)]


def oracle_trace_json(buffer, indent=None):
    return _dumps(oracle_dicts(buffer), indent)


def oracle_fingerprint(buffer):
    by_id = {span.span_id: span for span in buffer}
    survivors = [
        span for span in _by_id(buffer)
        if span.name not in CACHE_SENSITIVE_SPANS
    ]
    renumber = {span.span_id: index for index, span in enumerate(survivors)}

    def surviving_parent(parent_id):
        while parent_id is not None and parent_id not in renumber:
            parent_id = by_id[parent_id].parent_id
        return None if parent_id is None else renumber[parent_id]

    canonical = []
    for span in survivors:
        data = span.to_dict()
        data["span_id"] = renumber[span.span_id]
        data["parent_id"] = surviving_parent(span.parent_id)
        canonical.append(data)
    return hashlib.sha1(_dumps(canonical).encode("utf-8")).hexdigest()


def oracle_chrome_trace(buffer):
    tids = {}
    events = []
    for data in oracle_dicts(buffer):
        span = Span.from_dict(data)
        args = {key: span.attrs[key] for key in sorted(span.attrs)}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        platform = span.attrs.get("platform")
        tid = (
            _ROUTER_TID if platform is None
            else tids.setdefault(str(platform), len(tids) + 1)
        )
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": max(span.duration_s * 1e6, 1.0),
            "pid": _PID,
            "tid": tid,
            "args": args,
        })
    metadata = [
        {"name": "process_name", "ph": "M", "pid": _PID, "tid": _ROUTER_TID,
         "args": {"name": "repro router (sim time)"}},
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": _ROUTER_TID,
         "args": {"name": "router"}},
    ] + [
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tids[platform],
         "args": {"name": platform}}
        for platform in sorted(tids)
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def oracle_chrome_trace_json(buffer, indent=None):
    return _dumps(oracle_chrome_trace(buffer), indent)


def assert_matches_oracle(buffer):
    """Every span export of ``buffer`` equals its dict rendering."""
    assert buffer.to_json() == oracle_trace_json(buffer)
    assert trace_to_json(buffer, indent=2) == oracle_trace_json(buffer, 2)
    assert buffer.fingerprint() == oracle_fingerprint(buffer)
    assert chrome_trace_json(buffer) == oracle_chrome_trace_json(buffer)
    assert chrome_trace_json(buffer, indent=1) == oracle_chrome_trace_json(
        buffer, 1
    )
