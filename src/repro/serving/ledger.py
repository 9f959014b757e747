"""The ledger: one run's terminal records and event log, as data.

Records are columns, each record carrying its whole request, and
events the canonical writer's rows ``(kind, detail keys, detail values,
time_s, tenant, platform, request_ids)`` (``seq`` is the row position).
The serving loop appends these rows as it runs and builds the columns
before it returns (:mod:`repro.serving.vec_router`); they are the one
storage every count, aggregate, export, merge and fingerprint reads.
The sharding transforms -- :meth:`Ledger.renamed`,
:meth:`Ledger.without`, :meth:`Ledger.merged` -- map columns and rows
and build no record.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence

from repro.core.satisfaction import SoCBreakdown
from repro.serving.events import EVENT_KINDS, RouterEvent
from repro.serving.request import Request

__all__ = ["CompletedRequest", "Ledger", "RejectedRequest"]

#: Column name -> path on a record, per section; the first
#: ``_DICT_KEYS[section]`` names are the record's ``to_dict`` keys.
_PATHS = {
    "completed": dict(
        rid="request.rid", tenant="request.tenant.name",
        platform="platform", level="level", batch="batch",
        arrival_s="request.arrival_s", start_s="start_s",
        finish_s="finish_s", latency_s="latency_s",
        deadline_hit="deadline_hit", entropy="entropy", soc="soc.value",
        soc_time="soc.soc_time", soc_accuracy="soc.soc_accuracy",
        priority="request.tenant.priority", tenant_obj="request.tenant",
        difficulty="request.difficulty",
        energy_per_item_j="soc.energy_joules",
    ),
    "rejected": dict(
        rid="request.rid", tenant="request.tenant.name",
        arrival_s="request.arrival_s", reason="reason",
        priority="request.tenant.priority", tenant_obj="request.tenant",
        difficulty="request.difficulty",
    ),
}
_DICT_KEYS = {"completed": 14, "rejected": 4}


def _to_dict(record, section: str) -> dict:
    paths = list(_PATHS[section].items())[:_DICT_KEYS[section]]
    return {name: attrgetter(path)(record) for name, path in paths}


@dataclass(frozen=True)
class CompletedRequest:
    """One served request's end-to-end accounting."""

    request: Request
    platform: str
    level: int
    batch: int
    start_s: float
    finish_s: float
    entropy: float
    soc: SoCBreakdown

    @property
    def latency_s(self) -> float:
        """Arrival to batch completion."""
        return self.finish_s - self.request.arrival_s

    @property
    def deadline_hit(self) -> bool:
        """Whether the tenant's hard deadline was met."""
        return self.finish_s <= self.request.deadline_s

    def to_dict(self) -> dict:
        """Plain-data view."""
        return _to_dict(self, "completed")


@dataclass(frozen=True)
class RejectedRequest:
    """One request the router explicitly turned away.

    ``reason`` is ``"saturated"`` or ``"infeasible"`` from admission
    control; under fault injection it may also be ``"failed"`` (batch
    execution failed, retries disabled), ``"retries-exhausted"`` (the
    retry budget ran dry), ``"outage"`` (the platform died and no
    failover target would take the request) or ``"stranded"`` (still
    queued when the simulation drained -- the zero-loss backstop).
    """

    request: Request
    reason: str

    def to_dict(self) -> dict:
        """Plain-data view."""
        return _to_dict(self, "rejected")


def _select(columns: Mapping[str, list], rows: Sequence[int]) -> dict:
    return {
        name: [column[i] for i in rows] for name, column in columns.items()
    }


class Ledger:
    """One run's completed and rejected records as ``{name: column}``
    (``completed``, ``rejected``) and its events as ``rows``: the
    storage behind a report."""

    def __init__(self, completed=None, rejected=None, rows=None) -> None:
        self.completed = completed or {n: [] for n in _PATHS["completed"]}
        self.rejected = rejected or {n: [] for n in _PATHS["rejected"]}
        self.rows: List[tuple] = rows or []

    # -- reads -------------------------------------------------------------
    def columns(self, section: str) -> Mapping[str, list]:
        """One record section (``completed`` or ``rejected``) as
        ``{name: column}``."""
        return getattr(self, section)

    def event_rows(self) -> Sequence[tuple]:
        """The event log as rows, in order."""
        return self.rows

    def count(self, section: str) -> int:
        """Records in one section (``completed`` or ``rejected``)."""
        return len(getattr(self, section)["rid"])

    def event_counts(self) -> Dict[str, int]:
        """Events per kind, every kind included."""
        counts = Counter(row[0] for row in self.rows)
        return {kind: counts[kind] for kind in EVENT_KINDS}

    def records(self, section: str) -> Iterator:
        """One section's records (or events) as new objects, in order,
        that nothing keeps."""
        if section == "events":
            return (
                RouterEvent(seq, time_s, kind, tenant, platform, ids,
                            dict(zip(keys, values)))
                for seq, (kind, keys, values, time_s, tenant, platform, ids)
                in enumerate(self.rows)
            )
        columns = getattr(self, section)
        requests = map(
            Request, columns["rid"], columns["tenant_obj"],
            columns["arrival_s"], columns["difficulty"],
        )
        if section == "rejected":
            return map(RejectedRequest, requests, columns["reason"])
        return map(
            CompletedRequest, requests, *map(columns.get, (
                "platform", "level", "batch", "start_s", "finish_s",
                "entropy",
            )),
            map(SoCBreakdown, *map(columns.get, (
                "soc_time", "soc_accuracy", "energy_per_item_j", "soc",
            ))),
        )

    # -- transforms --------------------------------------------------------
    def renamed(self, rename: Callable[[str], str]) -> "Ledger":
        """Every platform name -- a completed record's, an event's
        ``platform`` and a failover's or outage reject's ``origin``
        detail -- mapped through ``rename``, which is called once per
        distinct name."""
        rename = cache(rename)
        completed = dict(self.columns("completed"))
        completed["platform"] = list(map(rename, completed["platform"]))
        rows = []
        for kind, keys, values, time_s, tenant, platform, ids in (
            self.event_rows()
        ):
            if "origin" in keys:
                at = keys.index("origin")
                values = (
                    values[:at] + (rename(str(values[at])),) + values[at + 1:]
                )
            if platform is not None:
                platform = rename(platform)
            rows.append((kind, keys, values, time_s, tenant, platform, ids))
        return Ledger(completed, self.columns("rejected"), rows)

    def without(self, rids: Iterable[int]) -> "Ledger":
        """The ledger less every record of ``rids``; events lose those
        rids and vanish when that empties a non-empty id list."""
        gone = set(rids)

        def kept(columns: Mapping[str, list]) -> dict:
            return _select(columns, [
                index for index, rid in enumerate(columns["rid"])
                if rid not in gone
            ])

        rows = []
        for row in self.event_rows():
            if row[6]:
                ids = tuple([rid for rid in row[6] if rid not in gone])
                if not ids:
                    continue
                row = row[:6] + (ids,)
            rows.append(row)
        return Ledger(
            kept(self.columns("completed")), kept(self.columns("rejected")),
            rows,
        )

    @classmethod
    def merged(cls, ledgers: Sequence["Ledger"]) -> "Ledger":
        """One ledger from several, in the given order: rids renumbered
        by a stable sort on ``(arrival_s, tenant name)`` over (ledger,
        local rid), events by ``(time_s, ledger, seq)``.  A rid terminal
        twice in one ledger, or an event naming a rid with no terminal
        record, is a ``ValueError``."""
        sections = [
            (ledger.columns("completed"), ledger.columns("rejected"))
            for ledger in ledgers
        ]
        keyed = []
        for index, (done, away) in enumerate(sections):
            rids = done["rid"] + away["rid"]
            arrivals = done["arrival_s"] + away["arrival_s"]
            tenants = done["tenant"] + away["tenant"]
            for row in sorted(range(len(rids)), key=rids.__getitem__):
                keyed.append((arrivals[row], tenants[row], index, rids[row]))
        keyed.sort(key=lambda item: (item[0], item[1]))
        rid_maps: List[Dict[int, int]] = [{} for _ in ledgers]
        for new_rid, (_arrival, _tenant, index, old_rid) in enumerate(keyed):
            if old_rid in rid_maps[index]:
                raise ValueError(
                    "request id %d appears twice in one merged report"
                    % (old_rid,)
                )
            rid_maps[index][old_rid] = new_rid

        def renumbered(part: int) -> dict:
            columns = {name: [] for name in sections[0][part]}
            new_rids: List[int] = []
            for index, section in enumerate(sections):
                for name, column in section[part].items():
                    columns[name] += column
                new_rids += map(
                    rid_maps[index].__getitem__, section[part]["rid"]
                )
            columns["rid"] = new_rids
            return _select(columns, sorted(
                range(len(new_rids)), key=new_rids.__getitem__
            ))

        entries = [
            (row[3], index, seq, row)
            for index, ledger in enumerate(ledgers)
            for seq, row in enumerate(ledger.event_rows())
        ]
        entries.sort(key=lambda item: (item[0], item[1], item[2]))
        rows = []
        for _time_s, index, _seq, row in entries:
            try:
                ids = tuple(map(rid_maps[index].__getitem__, row[6]))
            except KeyError as error:
                raise ValueError(
                    "event %r references request id %s with no terminal "
                    "record in its report" % (row[0], error)
                ) from None
            rows.append(row[:6] + (ids,))
        return cls(renumbered(0), renumbered(1), rows)
