"""Output-uncertainty monitoring (paper Section IV.C.3, first half).

P-CNN watches the entropy of live outputs through a sliding window; a
windowed mean above the user's threshold triggers calibration.  The
window smooths single hard inputs (one confusing photo should not
de-tune the whole pipeline) while reacting within a bounded number of
requests to a genuine distribution shift.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from repro.obs.metrics import ordered_sum

__all__ = ["UncertaintyMonitor"]


class UncertaintyMonitor:
    """Sliding-window mean of observed output entropies."""

    def __init__(self, threshold: float, window: int = 8) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.threshold = threshold
        self.window = window
        self._values: Deque[float] = deque(maxlen=window)

    @property
    def mean_entropy(self) -> Optional[float]:
        """Windowed mean (None before the first observation)."""
        if not self._values:
            return None
        return ordered_sum(self._values) / len(self._values)

    @property
    def n_observations(self) -> int:
        """Observations currently in the window."""
        return len(self._values)

    def observe(self, entropy: float) -> bool:
        """Record one output's entropy; True if the window now exceeds
        the threshold (calibration needed)."""
        if math.isnan(entropy) or entropy < 0:
            raise ValueError(
                "entropy must be a non-negative number, got %r" % (entropy,)
            )
        self._values.append(entropy)
        mean = self.mean_entropy
        return mean is not None and mean > self.threshold

    def exceeded(self) -> bool:
        """Whether the current window violates the threshold."""
        mean = self.mean_entropy
        return mean is not None and mean > self.threshold

    def reset(self) -> None:
        """Clear the window (after a calibration step changes kernels,
        old observations no longer describe the running configuration)."""
        self._values.clear()
