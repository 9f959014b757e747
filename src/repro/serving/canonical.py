"""The canonical JSON bytes a router report's fingerprint hashes.

Exactly ``json.dumps(data, sort_keys=True, separators=(",", ":"))`` of
the report's filtered plain-data view, written without building that
view: small sections still go through ``json.dumps``, while records
arrive as columns and events as shape-tagged rows, each shape written
through one ``%``-template with its keys in sorted order, and each
column rendered by :class:`repro.obs.jsontext.Texts`.

Every row template has one request-id slot -- a record's ``rid``, an
event's ``request_ids`` -- and a section's rows render from the same
templates in one of two ways.  :func:`write_report` renders whole
rows, for every plain fingerprint.  :func:`cut_report` renders them
cut at that slot, a head text and a tail text per row, and
:func:`joined` writes cut rows into a section around any ids: a merge
renders each leaf once, cut, and assembles the merged sections around
their renumbered ids.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Container, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.jsontext import Texts, dumps, literal, template

__all__ = [
    "COMPLETED_KEYS", "REJECTED_KEYS", "cut_report", "joined", "write_report",
]

#: The keys of one completed / rejected record, in canonical order.
COMPLETED_KEYS = (
    "arrival_s", "batch", "deadline_hit", "entropy", "finish_s",
    "latency_s", "level", "platform", "rid", "soc", "soc_accuracy",
    "soc_time", "start_s", "tenant",
)
REJECTED_KEYS = ("arrival_s", "reason", "rid", "tenant")

_KEYS = {"completed": COMPLETED_KEYS, "rejected": REJECTED_KEYS}

#: One section's rows cut at their id slot: ``(heads, tails)``, one of
#: each per row in ledger order, ``None`` at an event row left out.
Cut = Tuple[List[Optional[str]], List[Optional[str]]]


def _record_parts(keys: Sequence[str]) -> Tuple[str, str]:
    head, tail = template(keys).split('"rid":%s')
    return head + '"rid":', tail


def _event_parts(kind: str, keys: Sequence[str]) -> Tuple[str, str]:
    return (
        '{"detail":%s,"kind":%s,"platform":%%s,"request_ids":['
        % (template(keys), literal(kind)),
        '],"tenant":%s,"time_s":%s}',
    )


#: Each record section's template as ``(head, tail)`` around its rid.
_PARTS = {section: _record_parts(keys) for section, keys in _KEYS.items()}


class _ReportTexts(Texts):
    """:class:`Texts` plus the report's request-id lists and rows."""

    def id_lists(self, column: Sequence[Sequence]) -> List[str]:
        """Request-id lists, without their brackets."""
        if set(map(type, chain.from_iterable(column))) <= {int}:
            if set(map(len, column)) == {1}:
                return list(map(int.__repr__, chain.from_iterable(column)))
            return [",".join(map(int.__repr__, ids)) for ids in column]
        return [dumps(list(ids))[1:-1] for ids in column]

    def ids(self, section: str, column: Sequence) -> List[str]:
        """One section's id texts: a record's rid, an event's id list."""
        if section == "events":
            return self.id_lists(column)
        return self.column(column)

    def rows(self, parts, section, before, ids, after, cut: bool):
        """One shape's rows, ``parts`` its template as ``(head, tail)``
        around the id slot, from the value columns ``before`` and
        ``after`` the slot and the ``ids`` column: ``(texts,)`` whole,
        or ``(heads, tails)`` cut at the slot."""
        head, tail = parts
        before = [self.column(values) for values in before]
        after = [self.column(values) for values in after]
        if cut:
            return (
                list(map(head.__mod__, zip(*before))),
                list(map(tail.__mod__, zip(*after))),
            )
        whole = head + "%s" + tail
        return (list(map(
            whole.__mod__, zip(*before, self.ids(section, ids), *after)
        )),)

    def records(self, section: str, columns: Mapping[str, Sequence], cut):
        """A record section's rows from its ``{name: column}``."""
        keys = _KEYS[section]
        at = keys.index("rid")
        values = [columns[key] for key in keys]
        return self.rows(
            _PARTS[section], section, values[:at], values[at],
            values[at + 1:], cut,
        )

    def events(self, rows: Sequence[tuple], skip: Container[str], cut):
        """Rows ``(kind, detail keys, detail values, time_s, tenant,
        platform, request_ids)`` with string detail keys in sorted
        order, rendered a shape at a time, as :meth:`rows` gives them
        but in row order, ``None`` at a row of a kind in ``skip``."""
        shapes: Dict[tuple, List[int]] = {}
        for index, row in enumerate(rows):
            if row[0] in skip:
                continue
            indices = shapes.get(row[:2])
            if indices is None:
                indices = shapes[row[:2]] = []
            indices.append(index)
        outs = [[None] * len(rows) for _ in range(2 if cut else 1)]
        for (kind, keys), indices in shapes.items():
            _, _, details, times, tenants, platforms, ids = zip(
                *[rows[index] for index in indices]
            )
            texts = self.rows(
                _event_parts(kind, keys), "events",
                [*zip(*details), platforms], ids, [tenants, times], cut,
            )
            for out, column in zip(outs, texts):
                for index, text in zip(indices, column):
                    out[index] = text
        return outs


def joined(
    section: str, heads: Sequence[Optional[str]], ids: Sequence,
    tails: Sequence[Optional[str]],
) -> str:
    """One section's JSON list from cut rows, ``ids`` (a rid per record,
    an id tuple per event) written into their slots; a row whose head
    is ``None`` is left out."""
    keep = list(map(is_not, heads, repeat(None)))
    heads, ids, tails = (
        list(compress(column, keep)) for column in (heads, ids, tails)
    )
    if not heads:
        return "[]"
    pieces = [","] * (4 * len(heads))
    pieces[0::4] = heads
    pieces[1::4] = _ReportTexts().ids(section, ids)
    pieces[2::4] = tails
    pieces[0] = "[" + pieces[0]
    pieces[-1] = "]"
    return "".join(pieces)


def _pieces(
    head: Mapping[str, object], sections: Mapping[str, str]
) -> List[str]:
    """The canonical JSON of ``head`` plus the ``sections`` texts, as
    pieces whose concatenation is the bytes."""
    parts = {key: dumps(value) for key, value in head.items()}
    parts.update(sections)
    pieces = []
    for key in sorted(parts):
        pieces += (",", encode_basestring_ascii(key), ":", parts[key])
    pieces[0] = "{"
    pieces.append("}")
    return pieces


def write_report(
    head: Mapping[str, object], ledger, skip_kinds: Container[str]
) -> str:
    """Canonical JSON of ``head`` plus the ledger's ``completed``,
    ``rejected`` and ``events`` sections, less events of a kind in
    ``skip_kinds``.  A ledger that carries its sections' texts
    (``ledger.sections``: only a merged one, assembled from rows cut
    with the same ``skip_kinds``) has them written as carried; every
    other ledger renders whole rows."""
    sections = ledger.sections
    if sections is None:
        # Each section is joined as soon as it renders, so one
        # section's row texts are alive at a time.
        texts = _ReportTexts()
        sections = {}
        for section in _KEYS:
            rows, = texts.records(section, ledger.columns(section), False)
            sections[section] = "[%s]" % ",".join(rows)
        rows, = texts.events(ledger.event_rows(), skip_kinds, False)
        sections["events"] = "[%s]" % ",".join(filter(None, rows))
    # One join: the sections run to megabytes, so copy them once.
    return "".join(_pieces(head, sections))


def cut_report(
    head: Mapping[str, object], ledger, skip_kinds: Container[str]
) -> Tuple[List[str], Dict[str, Cut]]:
    """:func:`write_report`'s bytes as pieces (a digest takes them in
    turn, and nothing copies the whole), rendered from the ledger's
    columns and rows whatever it carries, and every section's rows cut
    at their id slot, by section: one render serves both."""
    texts = _ReportTexts()
    cuts: Dict[str, Cut] = {
        section: texts.records(section, ledger.columns(section), True)
        for section in _KEYS
    }
    cuts["events"] = texts.events(ledger.event_rows(), skip_kinds, True)
    ids = {
        section: ledger.columns(section)["rid"] for section in _KEYS
    }
    ids["events"] = [row[6] for row in ledger.event_rows()]
    sections = {
        section: joined(section, heads, ids[section], tails)
        for section, (heads, tails) in cuts.items()
    }
    return _pieces(head, sections), cuts
