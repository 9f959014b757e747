"""Record lists for the tests: the event log and its conversion to a
ledger.

A report keeps its records and events as one
:class:`~repro.serving.ledger.Ledger` of columns and rows.  The
discrete-event oracle (``tests/serving/event_loop.py``), the
object-walking transforms (``tests/serving/oracle.py``) and hand-built
fixtures write record objects and an :class:`EventLog` instead, and
:func:`ledger_of` turns those lists into the ledger a report reads, so
both sides fingerprint through the one canonical writer.
"""

from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.serving.events import EVENT_KINDS, RouterEvent
from repro.serving.ledger import _PATHS, Ledger

__all__ = ["EventLog", "ledger_of", "of_kind"]


def _check_kind(kind: str) -> None:
    if kind not in EVENT_KINDS:
        raise ValueError(
            "unknown event kind %r (known: %s)"
            % (kind, ", ".join(EVENT_KINDS))
        )


def of_kind(events: Iterable[RouterEvent], kind: str) -> List[RouterEvent]:
    """The events of one kind, in order."""
    _check_kind(kind)
    return [event for event in events if event.kind == kind]


class EventLog:
    """Ordered, append-only collection of router events."""

    def __init__(self, events: Sequence[RouterEvent] = ()) -> None:
        """An empty log, or one holding ``events`` as they are (already
        numbered ``0..n-1``)."""
        self._events: List[RouterEvent] = list(events)
        for event in self._events:
            _check_kind(event.kind)

    def record(
        self,
        kind: str,
        time_s: float,
        tenant: Optional[str] = None,
        platform: Optional[str] = None,
        request_ids: Tuple[int, ...] = (),
        **detail,
    ) -> RouterEvent:
        """Append one event; returns it."""
        _check_kind(kind)
        event = RouterEvent(
            seq=len(self._events),
            time_s=time_s,
            kind=kind,
            tenant=tenant,
            platform=platform,
            request_ids=tuple(request_ids),
            detail=detail,
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RouterEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> RouterEvent:
        return self._events[index]

    def to_dicts(self) -> List[dict]:
        """The whole log as plain data (JSON-serializable)."""
        return [event.to_dict() for event in self._events]


def ledger_of(completed=(), rejected=(), events=()) -> Ledger:
    """A ledger of these completed and rejected records, as columns,
    and these events, as rows (``seq`` becomes the row position)."""

    def columns(records, section: str) -> dict:
        return {
            name: list(map(attrgetter(path), records))
            for name, path in _PATHS[section].items()
        }

    rows = [
        (event.kind, keys, tuple(map(event.detail.__getitem__, keys)),
         event.time_s, event.tenant, event.platform, event.request_ids)
        for event, keys in (
            (event, tuple(sorted(event.detail))) for event in events
        )
    ]
    return Ledger(
        columns(completed, "completed"), columns(rejected, "rejected"), rows
    )
