"""Windowed arrival-rate extraction from request traces.

The control plane's forecasters consume *rates*, not raw arrivals:
the plane counts each tenant's arrivals itself (the serving loop hands
it every arrival) and each control tick feeds ``count / tick_s`` to the
tenant's forecaster.  These helpers give the same kind of series
offline -- turning a :class:`RequestTrace` into windowed arrival
rates -- so a forecaster can be fed a trace's rates without a routing
run (the forecaster tests do).

Window ``k`` covers ``[k * window_s, (k + 1) * window_s)``, i.e. an
arrival exactly on a boundary counts toward the *later* window, and
the series extends to the window containing the last arrival (or
``horizon_s`` when given).  The live loop differs there: an arrival at
the same instant as a tick is counted before the tick, in the window
that tick closes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.workloads.generators import RequestTrace

__all__ = ["windowed_counts", "windowed_rates"]


def windowed_counts(
    trace: RequestTrace,
    window_s: float,
    horizon_s: Optional[float] = None,
) -> np.ndarray:
    """Arrivals per fixed window over a trace.

    Returns an integer array with one entry per window; empty traces
    (and a ``horizon_s`` of 0) produce an empty array.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive, got %r" % (window_s,))
    if horizon_s is None:
        horizon_s = (
            float(trace.arrivals_s[-1]) if trace.n_requests else 0.0
        )
    if horizon_s < 0:
        raise ValueError("horizon_s must be non-negative, got %r" % (horizon_s,))
    n_windows = int(np.floor(horizon_s / window_s)) + 1 if horizon_s > 0 else 0
    if trace.n_requests == 0 or n_windows == 0:
        return np.zeros(max(n_windows, 0), dtype=np.int64)
    indices = np.floor(trace.arrivals_s / window_s).astype(np.int64)
    indices = indices[indices < n_windows]
    return np.bincount(indices, minlength=n_windows).astype(np.int64)


def windowed_rates(
    trace: RequestTrace,
    window_s: float,
    horizon_s: Optional[float] = None,
) -> np.ndarray:
    """Arrival rate (requests/second) per fixed window over a trace."""
    return windowed_counts(trace, window_s, horizon_s) / window_s
