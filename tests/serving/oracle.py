"""The report's byte-for-byte oracles.

``RouterReport.fingerprint`` writes its canonical bytes from the
ledger's columns (:mod:`repro.serving.canonical`).  The first oracle
is the rendering it replaced: ``json.dumps`` over the filtered
``to_dict(include_events=True, include_requests=True)``, with the
cache-kind, obs and prewarm filters.  The second is the record-object
versions of the ledger transforms (``qualify_report``,
``strip_requests``, ``RouterReport.merge``).  Tests assert each pair
agrees.
"""

import hashlib
import json
from dataclasses import replace

from repro.obs.instrument import cache_neutral_obs_section
from repro.serving import RouterReport
from repro.serving.shard import shard_platform
from tests.serving.event_log import ledger_of

#: Engine relay kinds the fingerprint leaves out.
CACHE_KINDS = ("compile", "cache_hit")


def oracle_payload(report) -> str:
    """The canonical JSON the fingerprint hashes, via plain dicts."""
    data = report.to_dict(include_events=True, include_requests=True)
    data["events"] = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in data["events"]
        if event["kind"] not in CACHE_KINDS
    ]
    data["event_counts"] = {
        kind: count
        for kind, count in data["event_counts"].items()
        if kind not in CACHE_KINDS
    }
    if report.obs is not None:
        data["obs"] = cache_neutral_obs_section(report.obs)
    if report.control is not None:
        control = dict(report.control)
        prewarm = control.get("prewarm")
        if isinstance(prewarm, dict):
            control["prewarm"] = {"requested": prewarm.get("requested")}
        data["control"] = control
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def oracle_fingerprint(report) -> str:
    return hashlib.sha1(oracle_payload(report).encode("utf-8")).hexdigest()


def checked_fingerprint(report) -> str:
    """``report.fingerprint()``, asserted equal to the oracle's."""
    fingerprint = report.fingerprint()
    assert fingerprint == oracle_fingerprint(report)
    return fingerprint


# -- the object-walking transforms the ledger's replaced -----------------
#
# ``qualify_report``, ``strip_requests`` and ``RouterReport.merge`` as
# they were written over record objects, each returning a report whose
# ledger :func:`ledger_of` builds from its lists.  The ledger transforms
# must agree with them byte for byte.

#: Event-detail keys whose values name platforms (a failover's or an
#: outage reject's ``origin``).
_PLATFORM_DETAIL_KEYS = ("origin",)


def _list_report(report, completed, rejected, events, platforms=None):
    """``report`` with these records and events (``ledger_of`` numbers
    the events ``0..n-1``)."""
    return RouterReport(
        platforms=list(report.platforms if platforms is None else platforms),
        horizon_s=report.horizon_s,
        resilience=report.resilience,
        obs=report.obs,
        control=report.control,
        ledger=ledger_of(completed, rejected, events),
    )


def oracle_qualify(report, shard_id):
    completed = [
        replace(record, platform=shard_platform(shard_id, record.platform))
        for record in report.completed
    ]
    events = []
    for event in report.events:
        detail = dict(event.detail)
        for key in _PLATFORM_DETAIL_KEYS:
            if key in detail:
                detail[key] = shard_platform(shard_id, str(detail[key]))
        platform = event.platform
        if platform is not None:
            platform = shard_platform(shard_id, platform)
        events.append(replace(event, platform=platform, detail=detail))
    return _list_report(
        report, completed, report.rejected, events,
        platforms=[
            replace(stats, platform=shard_platform(shard_id, stats.platform))
            for stats in report.platforms
        ],
    )


def oracle_strip(report, rids):
    gone = set(rids)
    if not gone:
        return report
    completed = [
        record for record in report.completed if record.request.rid not in gone
    ]
    rejected = [
        record for record in report.rejected if record.request.rid not in gone
    ]
    events = []
    for event in report.events:
        if event.request_ids:
            kept = tuple(
                rid for rid in event.request_ids if rid not in gone
            )
            if not kept:
                continue
            event = replace(event, request_ids=kept)
        events.append(event)
    return _list_report(report, completed, rejected, events)


def oracle_merge(reports):
    """``RouterReport.merge`` with its records renumbered object by
    object; platforms, resilience, obs and control (no ledger in them)
    come from the real merge."""
    reports = list(reports)
    if len(reports) == 1:
        return reports[0]
    merged = RouterReport.merge(reports)
    leaves = sorted(reports, key=lambda report: report.fingerprint())
    # Global rid assignment over every terminal record: a stable sort
    # by (arrival, tenant) with ties resolved by canonical leaf order,
    # then local rid order.
    rid_maps = [{} for _ in leaves]
    keyed = []
    for index, leaf in enumerate(leaves):
        requests = sorted(
            [record.request for record in leaf.completed]
            + [record.request for record in leaf.rejected],
            key=lambda request: request.rid,
        )
        for request in requests:
            keyed.append(
                (request.arrival_s, request.tenant.name, index, request.rid)
            )
    keyed.sort(key=lambda item: (item[0], item[1]))
    for new_rid, (_arrival, _tenant, index, old_rid) in enumerate(keyed):
        if old_rid in rid_maps[index]:
            raise ValueError(
                "request id %d appears twice in one merged report"
                % (old_rid,)
            )
        rid_maps[index][old_rid] = new_rid

    def renumber(index, record):
        request = record.request
        return replace(
            record, request=replace(request, rid=rid_maps[index][request.rid])
        )

    completed = sorted(
        (
            renumber(index, record)
            for index, leaf in enumerate(leaves)
            for record in leaf.completed
        ),
        key=lambda record: record.request.rid,
    )
    rejected = sorted(
        (
            renumber(index, record)
            for index, leaf in enumerate(leaves)
            for record in leaf.rejected
        ),
        key=lambda record: record.request.rid,
    )
    entries = [
        (event.time_s, index, event.seq, event)
        for index, leaf in enumerate(leaves)
        for event in leaf.events
    ]
    entries.sort(key=lambda item: (item[0], item[1], item[2]))
    events = []
    for _time_s, index, _seq, event in entries:
        try:
            request_ids = tuple(
                rid_maps[index][rid] for rid in event.request_ids
            )
        except KeyError as error:
            raise ValueError(
                "event %r references request id %s with no terminal "
                "record in its report" % (event.kind, error)
            ) from None
        events.append(replace(event, request_ids=request_ids))
    return _list_report(merged, completed, rejected, events)
