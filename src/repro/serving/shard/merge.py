"""Deterministic post-processing of per-shard reports.

Three transforms bridge worker-local reports into one global ledger:

* :func:`qualify_report` -- prefix every platform name with the
  shard's ``s<k>/`` tag so the merged report keeps shards disjoint
  (the merge layer treats equal platform names as the same device and
  would otherwise sum two shards' replicas into one row).
* :func:`strip_requests` -- erase re-homed requests from a dead
  shard's ledger so the global report counts each request exactly
  once (the failover target owns their terminal records).
* :func:`stitch_spans` -- re-parent every shard's span tree under one
  synthetic global ``run`` span with densely re-based span ids,
  appending zero-width ``supervise`` spans that record the
  supervision history (attempts, failures) per shard.

All three are pure functions over plain report data; they introduce
no ordering of their own beyond shard-id order, so the coordinator's
output is a deterministic function of the shard results.  The first
two are column and row transforms over the report's
:class:`~repro.serving.ledger.Ledger` and build no record objects.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Iterable, List, Optional, Sequence

from repro.obs.span import Span, TraceBuffer
from repro.serving.report import RouterReport
from repro.serving.shard.planner import shard_platform
from repro.serving.shard.worker import ShardResult

__all__ = ["qualify_report", "stitch_spans", "strip_requests"]


def qualify_report(report: RouterReport, shard_id: int) -> RouterReport:
    """A copy of one shard's report with every platform name
    qualified as ``s<shard_id>/<platform>``.

    Touches platform stats rows, completed-request placements, and
    events: the event-level ``platform`` field (a stranded reject
    names its platform there) and a failover's or outage reject's
    ``origin`` detail.  Rejected records carry no platform and pass
    through.
    """
    return replace(
        report,
        platforms=tuple(
            replace(stats, platform=shard_platform(shard_id, stats.platform))
            for stats in report.platforms
        ),
        ledger=report.ledger.renamed(partial(shard_platform, shard_id)),
    )


def strip_requests(report: RouterReport, rids: Iterable[int]) -> RouterReport:
    """Erase a set of (worker-local) request ids from one report.

    Used on a chaos-dead shard after its outage-rejected requests are
    re-homed: their terminal records now live on the failover target,
    so the dead shard must stop claiming them.  Terminal records
    (completed and rejected) for those rids are dropped; events lose
    the rids from their ``request_ids`` and vanish entirely when that
    leaves a previously non-empty id list empty (events that never
    referenced requests, like ``fault`` markers, stay).  Platform
    stats and resilience counters are left as observed -- they
    describe work the shard really did before dying.
    """
    gone = set(rids)
    if not gone:
        return report
    return replace(report, ledger=report.ledger.without(gone))


def stitch_spans(
    results: Sequence[ShardResult],
    horizon_s: float,
    n_shards: int,
    supervision: Optional[object] = None,
) -> TraceBuffer:
    """One global trace from every shard's exported spans.

    A synthetic root ``run`` span (id 0, ``shards`` attr) covers the
    whole merged horizon; each shard's spans keep their internal
    structure but get densely re-based ids (shards in shard-id order)
    and their roots re-parented onto the global root.  The result is
    a well-formed :class:`TraceBuffer` -- exportable through the
    standard span/Chrome exporters and fingerprintable like any
    single-run trace.

    When a supervision report (anything with ``records`` carrying
    ``shard_id``/``status``/``attempts``/``failures``) is given, one
    zero-width ``supervise`` span per shard is appended under the
    root, with one child per recorded failure.  They are zero-width
    and carry no wall-clock attrs on purpose: the *shape* of the
    supervision history is deterministic under the fault plan, so the
    stitched trace stays byte-stable run to run, while ``supervise``
    sits in :data:`~repro.obs.span.CACHE_SENSITIVE_SPANS` so trace
    fingerprints ignore supervision entirely.
    """
    stitched: List[Span] = []
    end_s = horizon_s
    offset = 1
    for result in sorted(results, key=lambda r: r.shard_id):
        if not result.spans:
            continue
        for data in result.spans:
            span = Span.from_dict(data)
            parent = span.parent_id
            stitched.append(
                Span(
                    span_id=span.span_id + offset,
                    parent_id=0 if parent is None else parent + offset,
                    name=span.name,
                    start_s=span.start_s,
                    end_s=span.end_s,
                    attrs=dict(span.attrs),
                )
            )
            end_s = max(end_s, span.end_s)
        offset += len(result.spans)
    if supervision is not None:
        records = sorted(
            getattr(supervision, "records", ()),
            key=lambda record: record.shard_id,
        )
        for record in records:
            record_id = offset
            offset += 1
            stitched.append(
                Span(
                    span_id=record_id,
                    parent_id=0,
                    name="supervise",
                    start_s=0.0,
                    end_s=0.0,
                    attrs={
                        "shard": "s%d" % record.shard_id,
                        "status": record.status,
                        "attempts": record.attempts,
                    },
                )
            )
            for failure in record.failures:
                stitched.append(
                    Span(
                        span_id=offset,
                        parent_id=record_id,
                        name="supervise",
                        start_s=0.0,
                        end_s=0.0,
                        attrs={
                            "shard": "s%d" % failure.shard_id,
                            "attempt": failure.attempt,
                            "kind": failure.kind,
                        },
                    )
                )
                offset += 1
    buffer = TraceBuffer()
    buffer.add(
        Span(
            span_id=0,
            parent_id=None,
            name="run",
            start_s=0.0,
            end_s=end_s,
            attrs={"shards": n_shards},
        )
    )
    for span in stitched:
        buffer.add(span)
    return buffer
