"""Request-stream generators for the runtime examples and benches.

Interactive traffic is bursty (a user fiddles with an app, walks
away); real-time traffic is a metronome at the frame rate; background
traffic arrives in dumps (a camera roll import).  The generators are
seeded and produce plain lists of arrival timestamps, plus a
difficulty profile -- a per-request entropy multiplier that the
calibration examples use to emulate distribution shift (live inputs
harder than the calibration set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.validation import require_finite

__all__ = [
    "RequestTrace",
    "interactive_trace",
    "realtime_trace",
    "background_trace",
    "bursty_trace",
    "diurnal_trace",
    "pareto_trace",
    "empty_trace",
    "merge_traces",
    "scale_rate",
    "difficulty_shift",
]


@dataclass(frozen=True)
class RequestTrace:
    """A stream of inference requests.

    ``arrivals_s`` are finite, monotonically non-decreasing
    timestamps; ``difficulty`` is a finite, non-negative per-request
    multiplier (>= 1 means harder than calibration) applied to the
    tuning-time entropy.
    """

    arrivals_s: np.ndarray
    difficulty: np.ndarray

    def __post_init__(self) -> None:
        if self.arrivals_s.shape != self.difficulty.shape:
            raise ValueError("arrivals and difficulty must align")
        # NaN compares false against everything, so it slips past the
        # ordering check below unless rejected first.
        if not np.all(np.isfinite(self.arrivals_s)):
            raise ValueError("arrivals_s must be finite")
        if np.any(np.diff(self.arrivals_s) < 0):
            raise ValueError("arrivals must be non-decreasing")
        if not np.all(np.isfinite(self.difficulty) & (self.difficulty >= 0)):
            raise ValueError("difficulty must be finite and non-negative")

    @property
    def n_requests(self) -> int:
        """Number of requests in the trace."""
        return len(self.arrivals_s)


def interactive_trace(
    n_requests: int = 20, think_time_s: float = 2.0, seed: int = 0
) -> RequestTrace:
    """Poisson-ish user interactions separated by think time."""
    require_finite(think_time_s=think_time_s)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(think_time_s, n_requests)
    return RequestTrace(
        arrivals_s=np.cumsum(gaps),
        difficulty=np.ones(n_requests),
    )


def realtime_trace(
    duration_s: float = 2.0, fps: float = 15.0, seed: int = 0
) -> RequestTrace:
    """A metronome of frames at the stream rate."""
    require_finite(duration_s=duration_s, fps=fps)
    n = max(1, int(duration_s * fps))
    arrivals = np.arange(n) / fps
    return RequestTrace(arrivals_s=arrivals, difficulty=np.ones(n))


def background_trace(
    n_photos: int = 64, dump_gap_s: float = 0.05, seed: int = 0
) -> RequestTrace:
    """A camera-roll dump: requests nearly back-to-back."""
    require_finite(dump_gap_s=dump_gap_s)
    arrivals = np.arange(n_photos) * dump_gap_s
    return RequestTrace(arrivals_s=arrivals, difficulty=np.ones(n_photos))


def bursty_trace(
    n_requests: int = 200,
    rate_hz: float = 100.0,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.25,
    switch_rate_hz: float = 2.0,
    seed: int = 0,
) -> RequestTrace:
    """A two-state MMPP (Markov-modulated Poisson) arrival stream.

    The process alternates between a *calm* and a *burst* state, each
    emitting Poisson arrivals; the burst state runs ``burst_factor``
    times hotter and holds ``burst_fraction`` of the time.  State
    holding times are exponential with mean ``1 / switch_rate_hz``
    (scaled so the stationary mix honours ``burst_fraction``).  The
    per-state rates are chosen so the *mean* arrival rate over the
    stationary distribution equals ``rate_hz``, which is what the
    property test pins down.
    """
    require_finite(
        rate_hz=rate_hz,
        burst_factor=burst_factor,
        burst_fraction=burst_fraction,
        switch_rate_hz=switch_rate_hz,
    )
    if rate_hz <= 0 or switch_rate_hz <= 0:
        raise ValueError("rates must be positive")
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must exceed 1.0")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    # Stationary mix: calm_fraction * calm + burst_fraction * burst = rate,
    # with burst = burst_factor * calm.
    calm_fraction = 1.0 - burst_fraction
    calm_rate = rate_hz / (calm_fraction + burst_fraction * burst_factor)
    state_rates = (calm_rate, calm_rate * burst_factor)
    # Holding times honouring the stationary fractions.
    hold_means = (
        calm_fraction / switch_rate_hz,
        burst_fraction / switch_rate_hz,
    )
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    now = 0.0
    state = 0
    while len(arrivals) < n_requests:
        hold = rng.exponential(hold_means[state])
        state_end = now + hold
        while len(arrivals) < n_requests:
            gap = rng.exponential(1.0 / state_rates[state])
            if now + gap > state_end:
                break
            now += gap
            arrivals.append(now)
        now = state_end
        state = 1 - state
    return RequestTrace(
        arrivals_s=np.asarray(arrivals), difficulty=np.ones(n_requests)
    )


def diurnal_trace(
    n_requests: int = 400,
    base_rate_hz: float = 50.0,
    amplitude: float = 0.6,
    period_s: float = 10.0,
    seed: int = 0,
) -> RequestTrace:
    """A seasonal (diurnal) non-homogeneous Poisson arrival stream.

    The instantaneous rate follows a sinusoid,
    ``rate(t) = base_rate_hz * (1 + amplitude * sin(2 pi t / period_s))``,
    the compressed-time analogue of a day/night traffic cycle.
    Arrivals are drawn by thinning a homogeneous Poisson process at
    the peak rate, so the stream is exact (not a per-window
    approximation) and fully determined by the seed.  The seasonal
    forecaster tests lock onto ``period_s``.
    """
    require_finite(
        base_rate_hz=base_rate_hz, amplitude=amplitude, period_s=period_s
    )
    if base_rate_hz <= 0 or period_s <= 0:
        raise ValueError("base_rate_hz and period_s must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    peak_rate = base_rate_hz * (1.0 + amplitude)
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    now = 0.0
    while len(arrivals) < n_requests:
        now += rng.exponential(1.0 / peak_rate)
        rate = base_rate_hz * (
            1.0 + amplitude * np.sin(2.0 * np.pi * now / period_s)
        )
        if rng.random() * peak_rate <= rate:
            arrivals.append(now)
    return RequestTrace(
        arrivals_s=np.asarray(arrivals), difficulty=np.ones(n_requests)
    )


def pareto_trace(
    n_requests: int = 200,
    rate_hz: float = 100.0,
    alpha: float = 2.5,
    seed: int = 0,
) -> RequestTrace:
    """Heavy-tailed (Pareto) inter-arrival gaps at a target mean rate.

    Gaps follow a Pareto distribution with shape ``alpha`` and scale
    ``x_m = (alpha - 1) / (alpha * rate_hz)``, so the mean gap is
    exactly ``1 / rate_hz``.  ``alpha`` must exceed 1 for the mean to
    exist; values near 1 give wilder tails.
    """
    require_finite(rate_hz=rate_hz, alpha=alpha)
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1.0 (mean gap must exist)")
    x_m = (alpha - 1.0) / (alpha * rate_hz)
    rng = np.random.default_rng(seed)
    # numpy's pareto is the Lomax form: x_m * (1 + Lomax(alpha)).
    gaps = x_m * (1.0 + rng.pareto(alpha, n_requests))
    return RequestTrace(
        arrivals_s=np.cumsum(gaps), difficulty=np.ones(n_requests)
    )


def empty_trace() -> RequestTrace:
    """A trace with no requests (the merge identity)."""
    return RequestTrace(
        arrivals_s=np.empty(0, dtype=float),
        difficulty=np.empty(0, dtype=float),
    )


def merge_traces(*traces: RequestTrace) -> RequestTrace:
    """Interleave several traces into one time-ordered stream.

    Merging nothing -- or only empty traces -- yields the empty trace,
    so callers assembling tenant mixes programmatically need no
    special case for a tenant that contributed no traffic.
    """
    traces = tuple(t for t in traces if t.n_requests > 0)
    if not traces:
        return empty_trace()
    arrivals = np.concatenate([t.arrivals_s for t in traces])
    difficulty = np.concatenate([t.difficulty for t in traces])
    order = np.argsort(arrivals, kind="stable")
    return RequestTrace(arrivals_s=arrivals[order], difficulty=difficulty[order])


def scale_rate(trace: RequestTrace, factor: float) -> RequestTrace:
    """Speed a trace up (``factor`` > 1) or slow it down, keeping shape.

    Compressing timestamps by ``factor`` multiplies the offered rate by
    the same ``factor`` -- how the overload bench turns a calibrated
    steady-state trace into an N-times-capacity storm.
    """
    require_finite(factor=factor)
    if not factor > 0:
        raise ValueError(
            "scale_rate factor must be a positive rate multiplier, got %r"
            % (factor,)
        )
    return RequestTrace(
        arrivals_s=trace.arrivals_s / factor,
        difficulty=trace.difficulty.copy(),
    )


def difficulty_shift(
    trace: RequestTrace,
    onset_fraction: float = 0.5,
    severity: float = 1.4,
) -> RequestTrace:
    """Make the tail of a trace harder (distribution shift).

    From ``onset_fraction`` of the way through the trace, requests
    produce ``severity``x the calibration entropy -- the scenario that
    triggers P-CNN's calibration backtracking.
    """
    require_finite(onset_fraction=onset_fraction, severity=severity)
    if severity < 1.0:
        raise ValueError("severity must be >= 1.0")
    if not 0.0 <= onset_fraction <= 1.0:
        raise ValueError("onset_fraction must be in [0, 1]")
    difficulty = trace.difficulty.copy()
    onset = int(len(difficulty) * onset_fraction)
    difficulty[onset:] = severity
    return RequestTrace(arrivals_s=trace.arrivals_s.copy(), difficulty=difficulty)
