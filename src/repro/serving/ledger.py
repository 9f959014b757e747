"""The ledger: one run's terminal records and event log, as data.

Records are columns, each record carrying its whole request, and
events the canonical writer's rows ``(kind, detail keys, detail values,
time_s, tenant, platform, request_ids)`` (``seq`` is the row position).
The serving loop appends these rows as it runs and builds the columns
before it returns (:mod:`repro.serving.vec_router`); they are the one
storage every count, aggregate, export, merge and fingerprint reads.
A ledger is read-only once built.  The sharding transforms --
:meth:`Ledger.renamed`, :meth:`Ledger.without`, :meth:`Ledger.merged`
-- map columns and rows into a new ledger and build no record, and a
merged ledger carries the canonical sections its merge assembled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence

from repro.core.satisfaction import SoCBreakdown
from repro.serving.canonical import Cut, joined
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


def _select(columns: Mapping[str, Sequence], rows: Sequence[int]) -> dict:
    return {
        name: tuple([column[row] for row in rows])
        for name, column in columns.items()
    }


def _frozen(columns, section: str) -> Mapping[str, tuple]:
    """``columns`` as a read-only ``{name: tuple}`` (every column of
    ``section``, empty, when there are none)."""
    if not columns:
        columns = dict.fromkeys(_PATHS[section], ())
    return MappingProxyType({
        name: tuple(column) for name, column in columns.items()
    })


class Ledger:
    """One run's completed and rejected records as ``{name: column}``
    (``completed``, ``rejected``) and its events as ``rows``: the
    storage behind a report, read-only once built.  Columns and rows
    are tuples, the column mappings read-only, and no attribute can be
    set.

    A merged ledger also carries ``sections``: the canonical texts of
    its ``completed``, ``rejected`` and ``events`` sections (events of
    the cache kinds left out), which :meth:`merged` assembled from its
    leaves' cut rows (:mod:`repro.serving.canonical`); every other
    ledger carries ``None``.  They last as long as the ledger: a pickle,
    :meth:`renamed` and :meth:`without` leave them out.
    """

    def __init__(self, completed=None, rejected=None, rows=()) -> None:
        init = super().__setattr__
        init("completed", _frozen(completed, "completed"))
        init("rejected", _frozen(rejected, "rejected"))
        init("rows", tuple(rows))
        init("sections", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("a Ledger is read-only: cannot set %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("a Ledger is read-only: cannot delete %r" % name)

    def __reduce__(self):
        # Carried sections stay out: an unpickled ledger renders its own.
        return Ledger, (dict(self.completed), dict(self.rejected), self.rows)

    # -- reads -------------------------------------------------------------
    def columns(self, section: str) -> Mapping[str, tuple]:
        """One record section (``completed`` or ``rejected``) as a
        read-only ``{name: column}``."""
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
        completed = dict(self.completed)
        completed["platform"] = tuple(map(rename, completed["platform"]))
        rows = []
        for kind, keys, values, time_s, tenant, platform, ids in self.rows:
            if "origin" in keys:
                at = keys.index("origin")
                values = (
                    values[:at] + (rename(str(values[at])),) + values[at + 1:]
                )
            if platform is not None:
                platform = rename(platform)
            rows.append((kind, keys, values, time_s, tenant, platform, ids))
        return Ledger(completed, self.rejected, rows)

    def without(self, rids: Iterable[int]) -> "Ledger":
        """The ledger less every record of ``rids``; events lose those
        rids and vanish when that empties a non-empty id list."""
        gone = set(rids)

        def kept(columns: Mapping[str, tuple]) -> dict:
            return _select(columns, [
                index for index, rid in enumerate(columns["rid"])
                if rid not in gone
            ])

        rows = []
        for row in self.rows:
            if row[6]:
                ids = tuple([rid for rid in row[6] if rid not in gone])
                if not ids:
                    continue
                row = row[:6] + (ids,)
            rows.append(row)
        return Ledger(kept(self.completed), kept(self.rejected), rows)

    @classmethod
    def merged(
        cls, ledgers: Sequence["Ledger"], cuts: Sequence[Mapping[str, Cut]]
    ) -> "Ledger":
        """One ledger from several, in the given order: rids renumbered
        by a stable sort on ``(arrival_s, tenant name)`` over (ledger,
        local rid), events by ``(time_s, ledger, seq)``.  ``cuts`` holds
        each ledger's rows cut at their id slot, as
        :func:`~repro.serving.canonical.cut_report` gives them; the
        merged ledger carries the sections they assemble, in its order
        and around its ids, and each cut is emptied as its sections are
        assembled, so the rows go as soon as they are copied.  A rid
        terminal twice in one ledger, or an event naming a rid with no
        terminal record, is a ``ValueError``."""
        keyed = []
        for index, ledger in enumerate(ledgers):
            done, away = ledger.completed, ledger.rejected
            rids = [*done["rid"], *away["rid"]]
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
        texts: Dict[str, str] = {}

        def renumbered(section: str) -> dict:
            columns = {name: [] for name in ledgers[0].columns(section)}
            new_rids: List[int] = []
            heads: List[str] = []
            tails: List[str] = []
            for index, ledger in enumerate(ledgers):
                leaf = ledger.columns(section)
                for name, column in leaf.items():
                    columns[name] += column
                new_rids += map(rid_maps[index].__getitem__, leaf["rid"])
                leaf_heads, leaf_tails = cuts[index].pop(section)
                heads += leaf_heads
                tails += leaf_tails
            columns["rid"] = new_rids
            order = sorted(range(len(new_rids)), key=new_rids.__getitem__)
            merged = _select(columns, order)
            texts[section] = joined(
                section, [heads[row] for row in order], merged["rid"],
                [tails[row] for row in order],
            )
            return merged

        completed, rejected = renumbered("completed"), renumbered("rejected")
        entries = [
            (row[3], index, seq, row)
            for index, ledger in enumerate(ledgers)
            for seq, row in enumerate(ledger.rows)
        ]
        entries.sort(key=lambda item: (item[0], item[1], item[2]))
        event_cuts = [cut.pop("events") for cut in cuts]
        rows, heads, tails = [], [], []
        for _time_s, index, seq, row in entries:
            try:
                ids = tuple(map(rid_maps[index].__getitem__, row[6]))
            except KeyError as error:
                raise ValueError(
                    "event %r references request id %s with no terminal "
                    "record in its report" % (row[0], error)
                ) from None
            rows.append(row[:6] + (ids,))
            event_heads, event_tails = event_cuts[index]
            heads.append(event_heads[seq])
            tails.append(event_tails[seq])
        texts["events"] = joined(
            "events", heads, [row[6] for row in rows], tails
        )
        ledger = cls(completed, rejected, rows)
        object.__setattr__(ledger, "sections", MappingProxyType(texts))
        return ledger
