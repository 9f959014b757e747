"""The canonical JSON bytes a router report's fingerprint hashes.

Exactly ``json.dumps(data, sort_keys=True, separators=(",", ":"))`` of
the report's filtered plain-data view, written without building that
view: small sections still go through ``json.dumps``, while records
arrive as columns and events as shape-tagged rows, each shape written
through one ``%``-template with its keys in sorted order.  Each
distinct float and string renders once per call, exactly as
``json.dumps`` renders it (``float.__repr__``, ``NaN`` / ``Infinity``
/ ``-Infinity``, ASCII-escaped strings); a column of any other mix of
types renders value by value through ``json.dumps``.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Container, Dict, Iterable, List, Mapping, Sequence

import numpy as np

__all__ = ["COMPLETED_KEYS", "REJECTED_KEYS", "write_report"]

#: The keys of one completed / rejected record, in canonical order.
COMPLETED_KEYS = (
    "arrival_s", "batch", "deadline_hit", "entropy", "finish_s",
    "latency_s", "level", "platform", "rid", "soc", "soc_accuracy",
    "soc_time", "start_s", "tenant",
)
REJECTED_KEYS = ("arrival_s", "reason", "rid", "tenant")

#: Value types a column renders through the per-call name memo.
_NAMED = {str, bool, type(None)}


def _dumps(value) -> str:
    """Canonical JSON of one plain-data value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: ``float.__repr__`` of the non-finite floats -> their JSON text.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _literal(text: str) -> str:
    """A JSON string as a ``%``-template fragment."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _template(keys: Sequence[str]) -> str:
    """A JSON object with one ``%s`` slot per key."""
    return "{%s}" % ",".join("%s:%%s" % _literal(key) for key in keys)


_COMPLETED = _template(COMPLETED_KEYS)
_REJECTED = _template(REJECTED_KEYS)


def _event_template(kind: str, keys: Sequence[str]) -> str:
    return '{"detail":%s,"kind":%s,"platform":%%s,"request_ids":[%%s],' \
        '"tenant":%%s,"time_s":%%s}' % (_template(keys), _literal(kind))


class _Texts:
    """Per-call memo: the JSON text of every distinct float and name."""

    def __init__(self) -> None:
        #: Keyed by the float's bits, so 0.0 and -0.0 stay apart.
        self.floats: Dict[int, str] = {}
        self.names: Dict[object, str] = {
            None: "null", True: "true", False: "false",
        }

    def column(self, values: Sequence) -> List[str]:
        """The JSON text of every value of one column."""
        kinds = set(map(type, values))
        if kinds == {float}:
            bits = np.array(values, dtype=np.float64).view(np.int64)
            keys, inverse = np.unique(bits, return_inverse=True)
            keys = keys.tolist()
            memo = self.floats
            fresh = set(keys).difference(memo)
            if fresh:
                fresh = np.fromiter(fresh, np.int64, len(fresh))
                floats = fresh.view(np.float64).tolist()
                reprs = list(map(float.__repr__, floats))
                memo.update(
                    zip(fresh.tolist(), map(_NON_FINITE.get, reprs, reprs))
                )
            texts = list(map(memo.__getitem__, keys))
            return list(map(texts.__getitem__, inverse.tolist()))
        if kinds == {int}:
            return list(map(int.__repr__, values))
        if kinds <= _NAMED:
            memo = self.names
            texts = list(map(memo.get, values))
            if None in texts:
                for value in set(values).difference(memo):
                    memo[value] = encode_basestring_ascii(value)
                texts = list(map(memo.__getitem__, values))
            return texts
        return [_dumps(value) for value in values]

    def id_lists(self, column: Sequence[Sequence]) -> List[str]:
        """Request-id lists, without their brackets."""
        if set(map(type, chain.from_iterable(column))) <= {int}:
            if set(map(len, column)) == {1}:
                return list(map(int.__repr__, chain.from_iterable(column)))
            return [",".join(map(int.__repr__, ids)) for ids in column]
        return [_dumps(list(ids))[1:-1] for ids in column]

    def table(self, template: str, keys, columns: Mapping) -> str:
        rows = zip(*[self.column(columns[key]) for key in keys])
        return "[%s]" % ",".join(map(template.__mod__, rows))

    def events(self, rows: Iterable[tuple], skip: Container[str]) -> str:
        """Rows ``(kind, detail keys, detail values, time_s, tenant,
        platform, request_ids)`` with string detail keys in sorted
        order, less those of a kind in ``skip``."""
        kept: List[tuple] = []
        shapes: Dict[tuple, List[int]] = {}
        for row in rows:
            if row[0] in skip:
                continue
            indices = shapes.get(row[:2])
            if indices is None:
                indices = shapes[row[:2]] = []
            indices.append(len(kept))
            kept.append(row)
        out: List[str] = [""] * len(kept)
        for (kind, keys), indices in shapes.items():
            _, _, details, times, tenants, platforms, ids = zip(
                *[kept[index] for index in indices]
            )
            columns = [self.column(values) for values in zip(*details)]
            columns += [
                self.column(platforms), self.id_lists(ids),
                self.column(tenants), self.column(times),
            ]
            texts = map(_event_template(kind, keys).__mod__, zip(*columns))
            for index, text in zip(indices, texts):
                out[index] = text
        return "[%s]" % ",".join(out)


def write_report(
    head: Mapping[str, object],
    completed: Mapping[str, Sequence],
    rejected: Mapping[str, Sequence],
    events: Iterable[tuple],
    skip_kinds: Container[str],
) -> str:
    """Canonical JSON of ``head`` plus the ``completed``, ``rejected``
    and ``events`` sections: ``completed`` / ``rejected`` map each of
    :data:`COMPLETED_KEYS` / :data:`REJECTED_KEYS` to a column in record
    order; ``events`` are :meth:`_Texts.events` rows, less ``skip_kinds``."""
    texts = _Texts()
    parts = {key: _dumps(value) for key, value in head.items()}
    parts["completed"] = texts.table(_COMPLETED, COMPLETED_KEYS, completed)
    parts["rejected"] = texts.table(_REJECTED, REJECTED_KEYS, rejected)
    parts["events"] = texts.events(events, skip_kinds)
    # One join: the sections run to megabytes, so copy them once.
    pieces = []
    for key in sorted(parts):
        pieces += (",", encode_basestring_ascii(key), ":", parts[key])
    pieces[0] = "{"
    pieces.append("}")
    return "".join(pieces)
