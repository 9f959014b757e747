"""Perforation-interpolation approximation (paper Fig. 11, Section IV.C).

Instead of computing every output pixel of a convolutional layer,
perforation evaluates the layer only on a W_o' x H_o' uniform grid of
*sampled* positions and fills the skipped pixels from their nearest
sampled neighbour.  The GEMM's column count shrinks by the perforation
rate ``1 - W_o'H_o' / W_oH_o`` while the network architecture (and
therefore the trained weights) stays untouched -- the property that
makes this usable for *run-time* accuracy tuning, unlike stride
changes or pruning which force retraining.

:class:`GridPerforation` carries the sampled row/column grids plus the
nearest-neighbour fill maps; :class:`PerforationPlan` maps conv-layer
names to perforation rates and materializes grids on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "GridPerforation",
    "make_grid_perforation",
    "PerforationPlan",
    "RATE_LADDER",
]

#: Discrete perforation rates the greedy tuner steps through.  Each
#: iteration moves one layer one rung up this ladder (Fig. 12's 0.1
#: increments).
RATE_LADDER = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass(frozen=True)
class GridPerforation:
    """Sampled-grid geometry for one conv layer's output.

    Attributes
    ----------
    out_h, out_w:
        Dense output dimensions (W_o, H_o).
    rows, cols:
        Sampled row / column coordinates (sorted, unique).
    row_map, col_map:
        For every dense coordinate, the *index into rows/cols* of its
        nearest sampled coordinate -- the interpolation gather maps.
    """

    out_h: int
    out_w: int
    rows: np.ndarray
    cols: np.ndarray
    row_map: np.ndarray
    col_map: np.ndarray

    @property
    def kept(self) -> int:
        """Sampled positions W_o' * H_o'."""
        return len(self.rows) * len(self.cols)

    @property
    def total(self) -> int:
        """Dense positions W_o * H_o."""
        return self.out_h * self.out_w

    @property
    def rate(self) -> float:
        """Perforation rate: 1 - W_o'H_o' / W_oH_o."""
        return 1.0 - self.kept / self.total

    def positions(self) -> np.ndarray:
        """Flat row-major indices of the sampled positions."""
        return (self.rows[:, None] * self.out_w + self.cols[None, :]).ravel()

    def interpolate(self, sampled: np.ndarray) -> np.ndarray:
        """Expand sampled outputs to the dense grid (Fig. 11, right).

        ``sampled`` has shape (..., kept) in the order of
        :meth:`positions`; returns (..., out_h, out_w) with skipped
        pixels copied from their nearest sampled neighbour.
        """
        lead = sampled.shape[:-1]
        grid = sampled.reshape(lead + (len(self.rows), len(self.cols)))
        return grid[..., self.row_map[:, None], self.col_map[None, :]]


def _axis_count(size: int, keep: int) -> int:
    """How many coordinates :func:`_sample_axis` returns, counted
    without sampling: ``keep`` clamped to [1, size].  Up to ``size``
    points spread evenly over [0, size - 1] are either those integers
    or more than 1 apart, so rounding never merges two of them."""
    return min(max(keep, 1), size)


def _sample_axis(size: int, keep: int) -> np.ndarray:
    """``keep`` distinct coordinates spread uniformly over [0, size)."""
    keep = int(min(max(keep, 1), size))
    coords = np.unique(np.round(np.linspace(0, size - 1, keep)).astype(np.int64))
    return coords


def _nearest_map(size: int, coords: np.ndarray) -> np.ndarray:
    """For each dense coordinate, index of the nearest sampled coord."""
    dense = np.arange(size)
    insert = np.searchsorted(coords, dense)
    insert = np.clip(insert, 0, len(coords) - 1)
    left = np.clip(insert - 1, 0, len(coords) - 1)
    pick_left = np.abs(coords[left] - dense) <= np.abs(coords[insert] - dense)
    return np.where(pick_left, left, insert)


def _grid_keeps(out_h: int, out_w: int, rate: float) -> Tuple[int, int]:
    """Rows and columns to keep (before clamping) for perforation
    ~``rate``: each axis thinned by ``sqrt(1 - rate)``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1), got %r" % (rate,))
    keep_fraction = math.sqrt(1.0 - rate)
    return (
        int(round(out_h * keep_fraction)),
        int(round(out_w * keep_fraction)),
    )


def _sample_grid(
    out_h: int, out_w: int, rate: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Sampled rows and columns of a grid with perforation ~``rate``."""
    keep_h, keep_w = _grid_keeps(out_h, out_w, rate)
    return _sample_axis(out_h, keep_h), _sample_axis(out_w, keep_w)


def make_grid_perforation(
    out_h: int, out_w: int, rate: float
) -> GridPerforation:
    """Build a uniform sampled grid with perforation rate ~``rate``.

    Rows and columns are thinned by ``sqrt(1 - rate)`` each; the
    realized rate is therefore quantized (property tests assert it is
    within one row/column of the request and never *exceeds* the grid).
    ``rate`` = 0 keeps everything.
    """
    rows, cols = _sample_grid(out_h, out_w, rate)
    return GridPerforation(
        out_h=out_h,
        out_w=out_w,
        rows=rows,
        cols=cols,
        row_map=_nearest_map(out_h, rows),
        col_map=_nearest_map(out_w, cols),
    )


@dataclass(frozen=True)
class PerforationPlan:
    """Per-layer perforation rates (Fig. 12's rate vector).

    Immutable; the greedy tuner derives new plans via :meth:`with_rate`.
    Layers absent from ``rates`` run dense.
    """

    rates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, rate in self.rates.items():
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    "rate for %r must be in [0, 1), got %r" % (name, rate)
                )
        object.__setattr__(self, "rates", dict(self.rates))

    @classmethod
    def dense(cls) -> "PerforationPlan":
        """The identity plan (no perforation anywhere)."""
        return cls({})

    def rate(self, layer_name: str) -> float:
        """Perforation rate for a layer (0 when unlisted)."""
        return self.rates.get(layer_name, 0.0)

    def with_rate(self, layer_name: str, rate: float) -> "PerforationPlan":
        """A new plan with one layer's rate replaced."""
        rates = dict(self.rates)
        # Exact sentinel: 0.0 is the assigned "dense" rung, never a
        # computed value (rates are validated to [0, 1) on construction).
        if rate == 0.0:  # lint: ignore[REP002]
            rates.pop(layer_name, None)
        else:
            rates[layer_name] = rate
        return PerforationPlan(rates)

    def grid_for(
        self, layer_name: str, out_h: int, out_w: int
    ) -> Optional[GridPerforation]:
        """Materialize the sampled grid for a layer (None if dense)."""
        rate = self.rate(layer_name)
        # Exact sentinel: unlisted layers report the assigned 0.0 rung.
        if rate == 0.0:  # lint: ignore[REP002]
            return None
        return make_grid_perforation(out_h, out_w, rate)

    def is_dense(self) -> bool:
        """True when no layer is perforated."""
        # Exact sentinel: stored rates are assigned ladder values.
        return all(
            rate == 0.0  # lint: ignore[REP002]
            for rate in self.rates.values()
        )

    def column_fraction(self, layer_name: str, out_h: int, out_w: int) -> float:
        """Fraction of GEMM columns that survive for a layer.

        Uses the *realized* grid (quantized), not the nominal rate, so
        the time model and the numpy executor agree exactly: this is
        :meth:`grid_for`'s ``kept / total``, counted without sampling
        the rows and columns (:func:`_axis_count`).
        """
        rate = self.rate(layer_name)
        if rate <= 0.0:  # dense: rates are validated to [0, 1)
            return 1.0
        keep_h, keep_w = _grid_keeps(out_h, out_w, rate)
        kept = _axis_count(out_h, keep_h) * _axis_count(out_w, keep_w)
        return kept / (out_h * out_w)

    def describe(self) -> str:
        """Compact 'layer:rate' listing."""
        if self.is_dense():
            return "dense"
        parts = [
            "%s:%.2f" % (name, rate)
            for name, rate in sorted(self.rates.items())
            if rate > 0.0
        ]
        return ", ".join(parts)
