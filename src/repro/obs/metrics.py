"""Metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named instrument families; each
family fans out into one instrument per label set, so
``registry.counter("batches_total", platform="K20c")`` and the same
name with ``platform="TX1"`` are independent series under one family.
A snapshot at any sim time is a pure, sorted plain-data view -- the
substrate for the JSON and Prometheus exporters in
:mod:`repro.obs.export` and for the ``obs`` section of a
:class:`~repro.serving.report.RouterReport`.

Boundary conventions (shared, by design, with the serving layer):

* **Histogram buckets are upper-inclusive**: a sample lands in the
  first bucket whose edge satisfies ``value <= edge`` (Prometheus's
  ``le`` semantics), with one overflow bucket above the last edge.
  This matches :class:`~repro.core.runtime.server.FlushPolicy`, whose
  timeout boundary is inclusive (a request arriving exactly at the
  flush point still joins the batch), so "exactly at the edge" always
  means "inside the lower/earlier bucket" across the codebase.
* **Percentiles interpolate linearly** between order statistics
  (numpy's "linear" method): :func:`linear_percentile` is the single
  implementation behind ``ServerReport.percentile`` and
  ``RouterReport.percentile_latency_s``, so the two report types
  cannot drift apart on edge handling (empty series -> 0.0, single
  sample -> that sample at every q).
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "linear_percentile",
    "linear_percentiles",
    "ordered_sum",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "SLACK_BUCKETS_S",
    "OCCUPANCY_BUCKETS",
    "RATE_ERROR_BUCKETS_RPS",
]

#: Default latency histogram edges in seconds (upper-inclusive).
LATENCY_BUCKETS_S = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Deadline-slack edges in seconds; negative slack is a missed
#: deadline, so the low edges resolve *how badly* a request missed.
SLACK_BUCKETS_S = (-1.0, -0.5, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0, 2.5)

#: Batch-occupancy edges (occupied slots / plan capacity).
OCCUPANCY_BUCKETS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

#: Forecast-error edges in requests/second (absolute one-step error of
#: the control plane's arrival-rate forecasters).
RATE_ERROR_BUCKETS_RPS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def linear_percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100) with linear interpolation.

    The shared edge conventions: an empty series yields 0.0 (reports
    aggregate "nothing served" as zero, not an error), a single sample
    is every percentile of itself, and ``q`` exactly 0/100 are the
    min/max order statistics.
    """
    return linear_percentiles(values, (q,))[0]


def linear_percentiles(
    values: Sequence[float], qs: Sequence[float]
) -> List[float]:
    """:func:`linear_percentile` of ``values`` at each of ``qs``, from
    one sort."""
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % (q,))
    if not values:
        return [0.0] * len(qs)
    ordered = sorted(values)
    return [_interpolate(ordered, q) for q in qs]


def _interpolate(ordered: Sequence[float], q: float) -> float:
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    interpolated = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
    # Clamp: the lerp can drift past its endpoints by one ulp, and a
    # percentile must never leave the observed range.
    return min(max(interpolated, ordered[low]), ordered[high])


def ordered_sum(values: Iterable, start=0):
    """``start`` plus ``values``, added one at a time left to right.

    This is builtin ``sum`` up to Python 3.11.  From 3.12 builtin
    ``sum`` compensates float rounding, so the same floats can sum to a
    different last bit -- and every pinned fingerprint with it.  Every
    sum in ``repro`` that can add floats goes through here.
    """
    return reduce(add, values, start)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical (sorted, stringified) form of one label set."""
    return tuple((key, str(labels[key])) for key in sorted(labels))


def render_series(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """``name{a=x,b=y}`` -- the stable series id used in exports."""
    if not labels:
        return name
    return "%s{%s}" % (
        name, ",".join("%s=%s" % (key, value) for key, value in labels)
    )


class Counter:
    """Monotone accumulator."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counter increments must be >= 0, got %r" % (amount,))
        self.value += amount

    def snapshot(self) -> dict:
        """Plain-data view."""
        return {"value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the current level by ``delta``."""
        self.value += delta

    def snapshot(self) -> dict:
        """Plain-data view."""
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with upper-inclusive edges.

    ``edges`` must be strictly increasing; a sample ``v`` lands in the
    first bucket with ``v <= edge`` and in the overflow bucket when it
    exceeds the last edge.  ``sum``/``count``/``min``/``max`` ride
    along so means and ranges survive the bucketing.
    """

    kind = "histogram"

    def __init__(self, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = list(edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(
                "bucket edges must be strictly increasing, got %r" % (edges,)
            )
        self.edges: Tuple[float, ...] = tuple(ordered)
        self.bucket_counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.observe_many([value])

    def observe_many(self, values: Sequence[float]) -> None:
        """Record samples in order: the state :meth:`observe` on each
        would leave.  ``sum`` adds left to right, ``min``/``max`` keep
        the first of equal extremes, and NaN lands in overflow."""
        if not len(values):
            return
        landed = np.bincount(
            np.searchsorted(self.edges, values, side="left"),
            minlength=len(self.bucket_counts),
        )
        for index, count in enumerate(landed.tolist()):
            self.bucket_counts[index] += count
        self.count += len(values)
        self.sum = ordered_sum(values, self.sum)
        lows = values if self.min is None else chain((self.min,), values)
        highs = values if self.max is None else chain((self.max,), values)
        self.min = min(lows)
        self.max = max(highs)

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, the
        overflow bucket rendered as ``inf``."""
        pairs = []
        running = 0
        for edge, bucket in zip(self.edges, self.bucket_counts):
            running += bucket
            pairs.append((edge, running))
        pairs.append((math.inf, running + self.bucket_counts[-1]))
        return pairs

    def snapshot(self) -> dict:
        """Plain-data view (bucket edges as strings so ``inf`` and JSON
        coexist)."""
        return {
            "buckets": [
                ["%.12g" % edge, count] for edge, count in self.cumulative()
            ],
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instrument families, each fanned out per label set.

    ``base_labels`` are merged into every series' label set (caller
    labels win on collision) -- how the shard layer stamps a worker's
    entire registry with its shard identity so per-shard snapshots
    stay disjoint and merge associatively.
    """

    _KINDS = ("counter", "gauge", "histogram")

    def __init__(self, base_labels: Optional[Dict[str, object]] = None) -> None:
        #: family name -> (kind, help text)
        self._families: Dict[str, Tuple[str, str]] = {}
        #: (family name, label key) -> instrument
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        #: labels stamped onto every series of this registry
        self._base_labels: Dict[str, object] = dict(base_labels or {})

    def _instrument(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: Dict[str, object],
        factory,
    ):
        if self._base_labels:
            labels = {**self._base_labels, **labels}
        known = self._families.get(name)
        if known is None:
            self._families[name] = (kind, help_text)
        elif known[0] != kind:
            raise ValueError(
                "metric %r is a %s, requested as %s" % (name, known[0], kind)
            )
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = factory()
            self._series[key] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        """The counter series for ``name`` + ``labels`` (created lazily)."""
        return self._instrument("counter", name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        """The gauge series for ``name`` + ``labels`` (created lazily)."""
        return self._instrument("gauge", name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        edges: Sequence[float],
        help_text: str = "",
        **labels,
    ) -> Histogram:
        """The histogram series for ``name`` + ``labels``.

        Every series of one family must share ``edges``; differing
        edges for an existing family is an error.
        """
        histogram = self._instrument(
            "histogram", name, help_text, labels, lambda: Histogram(edges)
        )
        if histogram.edges != tuple(edges):
            raise ValueError(
                "histogram %r already registered with edges %r, got %r"
                % (name, histogram.edges, tuple(edges))
            )
        return histogram

    @property
    def n_series(self) -> int:
        """Registered (family, label set) series."""
        return len(self._series)

    def families(self) -> List[Tuple[str, str, str]]:
        """``(name, kind, help)`` per family, sorted by name."""
        return [
            (name,) + self._families[name] for name in sorted(self._families)
        ]

    def series(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], object]]:
        """``(family, labels, instrument)`` sorted by (family, labels)."""
        return [
            (name, labels, self._series[(name, labels)])
            for name, labels in sorted(self._series)
        ]

    def snapshot(self) -> dict:
        """The whole registry as sorted plain data.

        ``{series id: {"kind": ..., **instrument state}}`` -- stable
        under label/family insertion order, so two same-seed runs
        produce byte-identical snapshots.
        """
        data = {}
        for name, labels, instrument in self.series():
            entry = {"kind": instrument.kind}
            entry.update(instrument.snapshot())
            data[render_series(name, labels)] = entry
        return data
