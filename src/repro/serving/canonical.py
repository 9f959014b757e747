"""The canonical JSON bytes a router report's fingerprint hashes.

Exactly ``json.dumps(data, sort_keys=True, separators=(",", ":"))`` of
the report's filtered plain-data view, written without building that
view: small sections still go through ``json.dumps``, while records
arrive as columns and events as shape-tagged rows, each shape written
through one ``%``-template with its keys in sorted order, and each
column rendered by :class:`repro.obs.jsontext.Texts`.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Container, Dict, Iterable, List, Mapping, Sequence

from repro.obs.jsontext import Texts, dumps, literal, template

__all__ = ["COMPLETED_KEYS", "REJECTED_KEYS", "write_report"]

#: The keys of one completed / rejected record, in canonical order.
COMPLETED_KEYS = (
    "arrival_s", "batch", "deadline_hit", "entropy", "finish_s",
    "latency_s", "level", "platform", "rid", "soc", "soc_accuracy",
    "soc_time", "start_s", "tenant",
)
REJECTED_KEYS = ("arrival_s", "reason", "rid", "tenant")

_COMPLETED = template(COMPLETED_KEYS)
_REJECTED = template(REJECTED_KEYS)


def _event_template(kind: str, keys: Sequence[str]) -> str:
    return '{"detail":%s,"kind":%s,"platform":%%s,"request_ids":[%%s],' \
        '"tenant":%%s,"time_s":%%s}' % (template(keys), literal(kind))


class _ReportTexts(Texts):
    """:class:`Texts` plus the report's request-id lists and event rows."""

    def id_lists(self, column: Sequence[Sequence]) -> List[str]:
        """Request-id lists, without their brackets."""
        if set(map(type, chain.from_iterable(column))) <= {int}:
            if set(map(len, column)) == {1}:
                return list(map(int.__repr__, chain.from_iterable(column)))
            return [",".join(map(int.__repr__, ids)) for ids in column]
        return [dumps(list(ids))[1:-1] for ids in column]

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
    order; ``events`` are :meth:`_ReportTexts.events` rows, less
    ``skip_kinds``."""
    texts = _ReportTexts()
    parts = {key: dumps(value) for key, value in head.items()}
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
