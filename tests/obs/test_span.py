"""Tests for repro.obs.span: spans, handles, tracer, buffer."""

import json
import math

import pytest

from repro.obs.span import (
    CACHE_SENSITIVE_SPANS,
    SPAN_NAMES,
    Span,
    TraceBuffer,
    Tracer,
)
from tests.obs.oracle import assert_matches_oracle


class TestSpan:
    def test_duration_and_containment(self):
        outer = Span(0, None, "run", 0.0, 10.0, {})
        inner = Span(1, 0, "execute_batch", 2.0, 3.5, {})
        assert outer.duration_s == 10.0
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_to_dict_round_trip(self):
        span = Span(3, 1, "dispatch", 1.25, 1.25, {"b": 2, "a": "x"})
        data = span.to_dict()
        assert list(data["attrs"]) == ["a", "b"]  # sorted
        assert Span.from_dict(data) == span

    def test_taxonomy_covers_the_issue_span_set(self):
        for name in (
            "compile", "plan_cache_lookup", "execute_batch", "dispatch",
            "admission", "retry", "calibration_backtrack", "fault_episode",
        ):
            assert name in SPAN_NAMES
        assert set(CACHE_SENSITIVE_SPANS) <= set(SPAN_NAMES)


class TestTracer:
    def test_begin_end_records_into_buffer(self):
        tracer = Tracer()
        handle = tracer.begin("run", 0.0, platforms="a")
        assert tracer.open_spans == 1
        span = tracer.end(handle, 2.0, outcome="done")
        assert tracer.open_spans == 0
        assert len(tracer.buffer) == 1
        assert span.name == "run"
        assert span.start_s == 0.0 and span.end_s == 2.0
        assert span.attrs == {"platforms": "a", "outcome": "done"}

    def test_span_ids_are_dense_in_begin_order(self):
        tracer = Tracer()
        a = tracer.begin("run", 0.0)
        b = tracer.begin("platform", 0.0, parent=a)
        c = tracer.begin("request", 1.0, parent=a)
        assert (a.span_id, b.span_id, c.span_id) == (0, 1, 2)

    def test_unknown_name_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown span name"):
            tracer.begin("bogus", 0.0)

    def test_end_before_start_rejected(self):
        tracer = Tracer()
        handle = tracer.begin("run", 5.0)
        with pytest.raises(ValueError, match="before it began"):
            tracer.end(handle, 4.0)

    def test_child_before_parent_start_rejected(self):
        tracer = Tracer()
        parent = tracer.begin("run", 5.0)
        with pytest.raises(ValueError, match="before its parent"):
            tracer.begin("request", 4.0, parent=parent)

    def test_double_end_rejected(self):
        tracer = Tracer()
        handle = tracer.begin("run", 0.0)
        tracer.end(handle, 1.0)
        with pytest.raises(ValueError, match="not open"):
            tracer.end(handle, 2.0)

    def test_instant_and_emit(self):
        tracer = Tracer()
        instant = tracer.instant("admission", 1.5, reason="ok")
        emitted = tracer.emit("execute_batch", 1.0, 2.0, batch=4)
        assert instant.duration_s == 0.0
        assert emitted.duration_s == 1.0
        assert len(tracer.buffer) == 2

    def test_drain_open_closes_in_id_order_and_marks(self):
        tracer = Tracer()
        a = tracer.begin("run", 0.0)
        b = tracer.begin("platform", 0.0, parent=a)
        closed = tracer.drain_open(3.0)
        assert [s.span_id for s in closed] == [a.span_id, b.span_id]
        assert all(s.attrs["open_at_drain"] for s in closed)
        assert tracer.open_spans == 0

    def test_drain_never_ends_before_start(self):
        tracer = Tracer()
        tracer.begin("run", 5.0)
        (span,) = tracer.drain_open(1.0)
        assert span.end_s == 5.0


class TestTraceBuffer:
    def _populated(self):
        tracer = Tracer()
        run = tracer.begin("run", 0.0)
        tracer.instant("compile", 0.0, platform="a")
        tracer.instant("plan_cache_lookup", 0.1, platform="a")
        tracer.emit("execute_batch", 1.0, 2.0, parent=run, platform="a")
        tracer.end(run, 3.0)
        return tracer.buffer

    def test_of_name_and_counts(self):
        buffer = self._populated()
        assert len(buffer.of_name("execute_batch")) == 1
        assert buffer.counts["run"] == 1
        assert buffer.counts["retry"] == 0
        with pytest.raises(ValueError, match="unknown span name"):
            buffer.of_name("bogus")

    def test_children_of(self):
        buffer = self._populated()
        run = buffer.of_name("run")[0]
        children = buffer.children_of(run.span_id)
        assert [s.name for s in children] == ["execute_batch"]
        roots = buffer.children_of(None)
        assert {s.name for s in roots} == {
            "run", "compile", "plan_cache_lookup"
        }

    def test_to_dicts_ordered_by_span_id(self):
        buffer = self._populated()
        ids = [d["span_id"] for d in buffer.to_dicts()]
        assert ids == sorted(ids)

    def test_json_round_trip_is_bit_identical(self):
        buffer = self._populated()
        payload = buffer.to_json()
        rebuilt = TraceBuffer.from_json(payload)
        assert rebuilt.to_json() == payload
        assert rebuilt.fingerprint() == buffer.fingerprint()

    def test_fingerprint_ignores_cache_sensitive_spans(self):
        warm = self._populated()

        tracer = Tracer()  # same run shape, no compile/lookup spans
        run = tracer.begin("run", 0.0)
        tracer.emit("execute_batch", 1.0, 2.0, parent=run, platform="a")
        tracer.end(run, 3.0)
        cold = tracer.buffer

        assert warm.fingerprint() == cold.fingerprint()
        assert warm.to_json() != cold.to_json()

    def test_fingerprint_sensitive_to_routing_behaviour(self):
        buffer = self._populated()
        tracer = Tracer()
        run = tracer.begin("run", 0.0)
        tracer.emit("execute_batch", 1.0, 2.5, parent=run, platform="a")
        tracer.end(run, 3.0)
        assert tracer.buffer.fingerprint() != buffer.fingerprint()

    def test_fingerprint_remaps_parents_densely(self):
        tracer = Tracer()
        tracer.instant("compile", 0.0)  # id 0, dropped
        run = tracer.begin("run", 0.0)  # id 1 -> 0
        tracer.emit("request", 1.0, 2.0, parent=run)  # id 2 -> 1
        tracer.end(run, 3.0)
        survivors = json.loads(tracer.buffer.to_json())
        assert len(survivors) == 3
        # Equivalent buffer built without the compile span.
        other = Tracer()
        run2 = other.begin("run", 0.0)
        other.emit("request", 1.0, 2.0, parent=run2)
        other.end(run2, 3.0)
        assert other.buffer.fingerprint() == tracer.buffer.fingerprint()

    def test_cache_sensitive_parents_reparent_like_the_oracle(self):
        """Children of dropped ``compile``/``plan_cache_lookup`` spans
        re-parent onto their nearest surviving ancestor."""
        tracer = Tracer()
        run = tracer.begin("run", 0.0, platforms="a")
        compile_ = tracer.begin("compile", 0.0, parent=run, platform="a")
        lookup = tracer.begin(
            "plan_cache_lookup", 0.0, parent=compile_, outcome="hit"
        )
        tracer.instant("dispatch", 0.5, parent=lookup, platform="a")
        tracer.end(lookup, 1.0)
        tracer.instant("admission", 1.0, parent=compile_, reason="ok")
        tracer.end(compile_, 1.0)
        tracer.instant("compile", 1.5)
        tracer.end(run, 2.0)
        buffer = tracer.buffer
        assert_matches_oracle(buffer)
        survivors = Tracer()
        root = survivors.begin("run", 0.0, platforms="a")
        survivors.instant("dispatch", 0.5, parent=root, platform="a")
        survivors.instant("admission", 1.0, parent=root, reason="ok")
        survivors.end(root, 2.0)
        assert buffer.fingerprint() == survivors.buffer.fingerprint()

    def test_iteration_and_indexing_follow_closing_order(self):
        buffer = self._populated()
        closing = [span.span_id for span in buffer]
        assert closing == [1, 2, 3, 0]
        assert [buffer[i].span_id for i in range(len(buffer))] == closing
        assert buffer[-1].name == "run"
        with pytest.raises(IndexError):
            buffer[len(buffer)]


def _span(**changes):
    data = {
        "span_id": 0, "parent_id": None, "name": "run", "start_s": 0.0,
        "end_s": 1.0, "attrs": {},
    }
    data.update(changes)
    return data


class TestLoaderValidation:
    """``from_dicts``/``from_json`` reject a malformed span, naming its
    index and the field."""

    @pytest.mark.parametrize(
        "spans, message",
        [
            ([_span(name="bogus")], "span 0: name: unknown span name"),
            (
                [_span(), _span(span_id=1, parent_id=7)],
                "span 1: parent_id 7 names no span",
            ),
            ([_span(start_s=2.0)], "span 0: end_s 1.0 is before start_s 2.0"),
            (
                [_span(), _span(name="request", parent_id=0)],
                "span 1: span_id 0 is already in the trace",
            ),
            ([_span(start_s=math.nan)], "span 0: start_s must be a finite"),
            ([_span(end_s=math.inf)], "span 0: end_s must be a finite"),
            ([_span(span_id=True)], "span 0: span_id must be an int"),
            ([_span(parent_id="0")], "span 0: parent_id must be an int"),
            ([_span(attrs={1: "x"})], "span 0: attrs must be a mapping"),
            ([{"span_id": 0}], "span 0: missing field 'parent_id'"),
        ],
    )
    def test_malformed_span_rejected(self, spans, message):
        with pytest.raises(ValueError, match="^" + message):
            TraceBuffer.from_dicts(spans)

    def test_from_json_checks_too(self):
        payload = json.dumps([_span(name="bogus")])
        with pytest.raises(ValueError, match="unknown span name"):
            TraceBuffer.from_json(payload)
