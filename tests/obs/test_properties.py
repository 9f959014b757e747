"""Property-based tests for the span algebra (hypothesis).

The unit tests in ``test_span.py`` check the tracer pointwise; these
pin the structural invariants for *arbitrary* open/close/instant
sequences through its row API: span trees stay well-nested (child
intervals contained in their parent), span ids are dense and monotone
in open order, nothing is left open, the canonical JSON export
round-trips bit-identically, and every export
written from the buffer's rows equals its dict-built oracle -- for
attributes of every JSON kind, awkward floats and strings included.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, linear_percentile
from repro.obs.span import SPAN_NAMES, TraceBuffer, Tracer
from tests.obs.oracle import assert_matches_oracle

_NAMES = st.sampled_from(sorted(SPAN_NAMES))
_DT = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)

#: Attribute values of every JSON kind: floats that render apart
#: (``0.0``/``-0.0``) or as non-finite literals, ints, bools, None,
#: tuples of ints, and strings that need escaping.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=3).map(tuple),
    st.text(alphabet='a"\\%\u00e9\u2603\n', max_size=4),
)
#: Attribute names, the ids' own names and the Chrome track key among
#: them.
_ATTRS = st.dictionaries(
    st.sampled_from(
        ["platform", "span_id", "parent_id", "rid", "100%", 'q"\\', "\u00e9"]
    ),
    _VALUES,
    max_size=4,
)

#: One tracer step: open a child under the current span, close the
#: current span, or record an instant, each with attributes.  Each
#: advances the sim clock by a non-negative amount, so time is monotone
#: by construction — the tracer must *preserve* that, never reorder it.
#: A row's attribute keys are set once, so a close's attributes are
#: drawn disjoint from its row's: keys the span opened with drop out.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("open"), _NAMES, _DT, _ATTRS),
        st.tuples(st.just("close"), st.just(None), _DT, _ATTRS),
        st.tuples(st.just("instant"), _NAMES, _DT, _ATTRS),
    ),
    min_size=1,
    max_size=60,
)


def _drive(steps):
    """Drive a Tracer's row API with a stack discipline, checking after
    every step that the open rows are the stack's, and close what is
    still open at the end (marked ``open_at_drain``); returns the
    tracer."""
    tracer = Tracer()
    clock = 0.0
    stack = []
    for action, name, dt, attrs in steps:
        clock += dt
        parent = stack[-1] if stack else None
        if action == "open":
            stack.append(tracer.open_row(
                name, clock, parent, tuple(attrs), tuple(attrs.values())
            ))
        elif action == "close" and stack:
            row = stack.pop()
            attrs = {k: v for k, v in attrs.items() if k not in row[4]}
            tracer.close_row(row, clock, tuple(attrs), tuple(attrs.values()))
        elif action == "instant":
            tracer.instant_row(
                name, clock, parent, tuple(attrs), tuple(attrs.values())
            )
        assert tracer.open_spans == len(stack)
    while stack:
        tracer.close_row(stack.pop(), clock, ("open_at_drain",), (True,))
    return tracer


def _run_steps(steps):
    """The buffer :func:`_drive` fills."""
    return _drive(steps).buffer


class TestWellNesting:
    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_children_contained_in_parents(self, steps):
        buffer = _run_steps(steps)
        spans = {s.span_id: s for s in buffer}
        for span in buffer:
            if span.parent_id is not None:
                assert spans[span.parent_id].contains(span)

    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_every_span_has_nonnegative_duration(self, steps):
        for span in _run_steps(steps):
            assert span.end_s >= span.start_s

    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_nothing_left_open(self, steps):
        assert _drive(steps).open_spans == 0


class TestMonotoneSimTime:
    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_span_ids_dense_and_start_times_monotone(self, steps):
        buffer = _run_steps(steps)
        spans = sorted(buffer, key=lambda s: s.span_id)
        assert [s.span_id for s in spans] == list(range(len(spans)))
        starts = [s.start_s for s in spans]
        assert starts == sorted(starts)

    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_children_start_no_earlier_than_parent(self, steps):
        buffer = _run_steps(steps)
        spans = {s.span_id: s for s in buffer}
        for span in buffer:
            if span.parent_id is not None:
                assert span.start_s >= spans[span.parent_id].start_s


class TestExportRoundTrip:
    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_json_round_trip_bit_identical(self, steps):
        buffer = _run_steps(steps)
        payload = buffer.to_json()
        rebuilt = TraceBuffer.from_json(payload)
        assert rebuilt.to_json() == payload
        assert rebuilt.fingerprint() == buffer.fingerprint()

    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_dict_round_trip_preserves_every_span(self, steps):
        buffer = _run_steps(steps)
        rebuilt = TraceBuffer.from_dicts(buffer.to_dicts())
        # The live buffer records spans as they *end*; the canonical
        # export is id-ordered, so compare id-ordered on both sides.
        def by_id(span):
            return span.span_id

        assert sorted(rebuilt, key=by_id) == sorted(buffer, key=by_id)

    @given(steps=_steps)
    @settings(max_examples=120, deadline=None)
    def test_exports_match_the_dict_oracle(self, steps):
        assert_matches_oracle(_run_steps(steps))

    @given(steps=_steps)
    @settings(max_examples=60, deadline=None)
    def test_export_is_deterministic(self, steps):
        a = _run_steps(steps)
        b = _run_steps(list(steps))
        assert a.to_json() == b.to_json()
        assert a.fingerprint() == b.fingerprint()


class TestHistogramProperties:
    _values = st.lists(
        st.floats(
            min_value=-100.0,
            max_value=100.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        max_size=50,
    )
    _edges = st.lists(
        st.floats(
            min_value=-50.0,
            max_value=50.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=8,
        unique=True,
    ).map(sorted)

    @given(values=_values, edges=_edges)
    @settings(max_examples=120, deadline=None)
    def test_bucket_counts_total_to_count(self, values, edges):
        hist = Histogram(edges)
        for v in values:
            hist.observe(v)
        assert sum(hist.bucket_counts) == hist.count == len(values)
        cumulative = [c for _, c in hist.cumulative()]
        assert cumulative == sorted(cumulative)
        assert (cumulative[-1] if cumulative else 0) == len(values)

    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.1, math.nan, math.inf]),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            max_size=40,
        ),
        cut=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_bulk_observe_matches_the_sample_loop(self, values, cut):
        """``observe_many`` (twice, split at ``cut``) leaves the state
        the one-sample-at-a-time loop it replaced leaves."""
        edges = (-0.0, 0.1, 1.0)
        bulk = Histogram(edges)
        bulk.observe_many(values[:cut])
        bulk.observe_many(values[cut:])
        buckets = [0] * (len(edges) + 1)
        total, low, high = 0.0, None, None
        for value in values:
            index = len(edges)
            for position, edge in enumerate(edges):
                if value <= edge:
                    index = position
                    break
            buckets[index] += 1
            total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        assert bulk.bucket_counts == buckets
        assert bulk.count == len(values)
        assert repr((bulk.sum, bulk.min, bulk.max)) == repr((total, low, high))

    @given(values=_values, q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=120, deadline=None)
    def test_percentile_bounded_by_extremes(self, values, q):
        result = linear_percentile(values, q)
        if not values:
            assert result == 0.0
        else:
            assert min(values) <= result <= max(values)

    @given(steps=_steps)
    @settings(max_examples=40, deadline=None)
    def test_chrome_export_parses_when_nonempty(self, steps):
        from repro.obs.export import chrome_trace_json, validate_chrome_trace

        buffer = _run_steps(steps)
        if len(buffer) == 0:
            return
        data = json.loads(chrome_trace_json(buffer))
        assert validate_chrome_trace(data) == []
