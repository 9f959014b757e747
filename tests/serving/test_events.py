"""Tests for the event vocabulary and the tests' event log
(``tests/serving/event_log.py``), the oracle's and fixtures' writer."""

import json

import pytest

from repro.serving import EVENT_KINDS
from tests.serving.event_log import EventLog, ledger_of, of_kind


class TestEventLog:
    def test_records_in_order_with_monotone_seq(self):
        log = EventLog()
        log.record("enqueue", time_s=0.0, tenant="t", request_ids=(0,))
        log.record("dispatch", time_s=0.1, platform="K20c", request_ids=(0,))
        log.record("complete", time_s=0.2, platform="K20c", request_ids=(0,))
        assert [e.seq for e in log] == [0, 1, 2]
        assert [e.kind for e in log] == ["enqueue", "dispatch", "complete"]
        assert len(log) == 3
        assert log[1].platform == "K20c"

    def test_rejects_unknown_kind(self):
        log = EventLog()
        with pytest.raises(ValueError, match="known:"):
            log.record("explode", time_s=0.0)
        with pytest.raises(ValueError, match="known:"):
            of_kind(log, "explode")

    def test_of_kind_filters(self):
        log = EventLog()
        log.record("enqueue", time_s=0.0)
        log.record("reject", time_s=0.1, reason="saturated")
        log.record("enqueue", time_s=0.2)
        assert len(of_kind(log, "enqueue")) == 2
        (reject,) = of_kind(log, "reject")
        assert reject.detail["reason"] == "saturated"

    def test_counts_include_zero_kinds(self):
        """``Ledger.event_counts`` lists every kind of the vocabulary,
        in its order, zeros included."""
        log = EventLog()
        log.record("degrade", time_s=0.0, level=1)
        counts = ledger_of(events=log).event_counts()
        assert counts["degrade"] == 1
        assert counts["restore"] == 0
        assert tuple(counts) == EVENT_KINDS

    def test_to_dicts_is_json_serializable(self):
        log = EventLog()
        log.record(
            "dispatch", time_s=0.5, platform="TX1", request_ids=(3, 4),
            level=2, batch=2,
        )
        payload = json.loads(json.dumps(log.to_dicts()))
        assert payload[0]["request_ids"] == [3, 4]
        assert payload[0]["detail"] == {"batch": 2, "level": 2}
