"""Tests for repro.obs.span: spans, the tracer's row API, buffer."""

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


def _open(tracer, name, time_s, parent=None, **attrs):
    """Open a row with keyword attributes."""
    return tracer.open_row(
        name, time_s, parent, tuple(attrs), tuple(attrs.values())
    )


def _emit(tracer, name, start_s, end_s, parent=None, **attrs):
    """Record a whole span whose start and end are known."""
    tracer.close_row(_open(tracer, name, start_s, parent, **attrs), end_s)


def _instant(tracer, name, time_s, parent=None, **attrs):
    tracer.instant_row(
        name, time_s, parent, tuple(attrs), tuple(attrs.values())
    )


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
            "admission", "retry", "fault_episode",
        ):
            assert name in SPAN_NAMES
        assert set(CACHE_SENSITIVE_SPANS) <= set(SPAN_NAMES)


class TestTracer:
    def test_begin_end_records_into_buffer(self):
        tracer = Tracer()
        row = _open(tracer, "run", 0.0, platforms="a")
        assert tracer.open_spans == 1
        tracer.close_row(row, 2.0, ("outcome",), ("done",))
        assert tracer.open_spans == 0
        (span,) = tracer.buffer
        assert span.name == "run"
        assert span.start_s == 0.0 and span.end_s == 2.0
        assert span.attrs == {"platforms": "a", "outcome": "done"}

    def test_span_ids_are_dense_in_begin_order(self):
        tracer = Tracer()
        a = tracer.open_row("run", 0.0)
        b = tracer.open_row("platform", 0.0, a)
        c = tracer.open_row("request", 1.0, a)
        assert (a[0], b[0], c[0]) == (0, 1, 2)
        tracer.instant_row("admission", 1.0, c)
        for row in (c, b, a):
            tracer.close_row(row, 2.0)
        ids = {span.name: span.span_id for span in tracer.buffer}
        assert ids == {"run": 0, "platform": 1, "request": 2, "admission": 3}

    def test_unknown_name_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown span name 'bogus'"):
            tracer.instant_row("bogus", 0.0)
        row = tracer.open_row("bogus", 0.0)
        with pytest.raises(ValueError, match="unknown span name 'bogus'"):
            tracer.close_row(row, 1.0)
        assert len(tracer.buffer) == 0

    def test_end_before_start_rejected(self):
        tracer = Tracer()
        row = tracer.open_row("run", 5.0)
        with pytest.raises(ValueError, match="before it began"):
            tracer.close_row(row, 4.0)
        assert len(tracer.buffer) == 0

    def test_child_before_parent_start_rejected(self):
        tracer = Tracer()
        parent = tracer.open_row("run", 5.0)
        with pytest.raises(ValueError, match="before its parent"):
            tracer.open_row("request", 4.0, parent)
        with pytest.raises(ValueError, match="before its parent"):
            tracer.instant_row("admission", 4.0, parent)

    def test_open_spans_counts_rows_not_yet_closed(self):
        tracer = Tracer()
        run = tracer.open_row("run", 0.0)
        batch = tracer.open_row("execute_batch", 1.0, run)
        assert tracer.open_spans == 2
        tracer.instant_row("admission", 1.5, run)
        assert tracer.open_spans == 2
        tracer.close_row(batch, 2.0)
        assert tracer.open_spans == 1
        tracer.close_row(run, 3.0)
        assert tracer.open_spans == 0

    def test_second_close_of_a_row_rejected(self):
        tracer = Tracer()
        run = tracer.open_row("run", 0.0)
        tracer.close_row(run, 1.0)
        with pytest.raises(ValueError, match=r"span 0 \('run'\) is not open"):
            tracer.close_row(run, 2.0)
        assert tracer.open_spans == 0
        assert len(tracer.buffer) == 1
        payload = tracer.buffer.to_json()
        assert TraceBuffer.from_json(payload).to_json() == payload

    def test_closing_key_repeating_an_opening_key_rejected(self):
        tracer = Tracer()
        run = tracer.open_row("run", 0.0, None, ("a",), (1,))
        with pytest.raises(ValueError, match="span 'run' sets attribute 'a' twice"):
            tracer.close_row(run, 1.0, ("a",), (2,))
        with pytest.raises(ValueError, match="span 'run' sets attribute 'a' twice"):
            tracer.close_row(run, 1.0, ("b", "a"), (2, 3))
        assert len(tracer.buffer) == 0 and tracer.open_spans == 1
        tracer.close_row(run, 1.0, ("b",), (2,))
        payload = tracer.buffer.to_json()
        assert TraceBuffer.from_json(payload).to_json() == payload
        (span,) = tracer.buffer
        assert span.attrs == {"a": 1, "b": 2}

    def test_instant_and_emit(self):
        tracer = Tracer()
        _instant(tracer, "admission", 1.5, reason="ok")
        _emit(tracer, "execute_batch", 1.0, 2.0, batch=4)
        instant, emitted = tracer.buffer
        assert instant.duration_s == 0.0
        assert instant.attrs == {"reason": "ok"}
        assert emitted.duration_s == 1.0
        assert emitted.attrs == {"batch": 4}


class TestTraceBuffer:
    def _populated(self):
        tracer = Tracer()
        run = tracer.open_row("run", 0.0)
        _instant(tracer, "compile", 0.0, platform="a")
        _instant(tracer, "plan_cache_lookup", 0.1, platform="a")
        _emit(tracer, "execute_batch", 1.0, 2.0, run, platform="a")
        tracer.close_row(run, 3.0)
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
        run = tracer.open_row("run", 0.0)
        _emit(tracer, "execute_batch", 1.0, 2.0, run, platform="a")
        tracer.close_row(run, 3.0)
        cold = tracer.buffer

        assert warm.fingerprint() == cold.fingerprint()
        assert warm.to_json() != cold.to_json()

    def test_fingerprint_sensitive_to_routing_behaviour(self):
        buffer = self._populated()
        tracer = Tracer()
        run = tracer.open_row("run", 0.0)
        _emit(tracer, "execute_batch", 1.0, 2.5, run, platform="a")
        tracer.close_row(run, 3.0)
        assert tracer.buffer.fingerprint() != buffer.fingerprint()

    def test_fingerprint_remaps_parents_densely(self):
        tracer = Tracer()
        tracer.instant_row("compile", 0.0)  # id 0, dropped
        run = tracer.open_row("run", 0.0)  # id 1 -> 0
        _emit(tracer, "request", 1.0, 2.0, run)  # id 2 -> 1
        tracer.close_row(run, 3.0)
        survivors = json.loads(tracer.buffer.to_json())
        assert len(survivors) == 3
        # Equivalent buffer built without the compile span.
        other = Tracer()
        run2 = other.open_row("run", 0.0)
        _emit(other, "request", 1.0, 2.0, run2)
        other.close_row(run2, 3.0)
        assert other.buffer.fingerprint() == tracer.buffer.fingerprint()

    def test_cache_sensitive_parents_reparent_like_the_oracle(self):
        """Children of dropped ``compile``/``plan_cache_lookup`` spans
        re-parent onto their nearest surviving ancestor."""
        tracer = Tracer()
        run = _open(tracer, "run", 0.0, platforms="a")
        compile_ = _open(tracer, "compile", 0.0, run, platform="a")
        lookup = _open(tracer, "plan_cache_lookup", 0.0, compile_, outcome="hit")
        _instant(tracer, "dispatch", 0.5, lookup, platform="a")
        tracer.close_row(lookup, 1.0)
        _instant(tracer, "admission", 1.0, compile_, reason="ok")
        tracer.close_row(compile_, 1.0)
        tracer.instant_row("compile", 1.5)
        tracer.close_row(run, 2.0)
        buffer = tracer.buffer
        assert_matches_oracle(buffer)
        survivors = Tracer()
        root = _open(survivors, "run", 0.0, platforms="a")
        _instant(survivors, "dispatch", 0.5, root, platform="a")
        _instant(survivors, "admission", 1.0, root, reason="ok")
        survivors.close_row(root, 2.0)
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
