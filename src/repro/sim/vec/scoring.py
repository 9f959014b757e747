"""Vectorized SoC accuracy curve (element-wise twin of
:func:`repro.core.satisfaction.soc_accuracy`).

:func:`soc_accuracy_vec` evaluates the scalar function's exact
operation order element-wise over float64 arrays, so every output
element is bit-identical to calling the scalar function on the same
input: the tail is ``threshold / entropy``.  The branch is realized
with an ``np.where`` mask; the masked-out lanes may compute ``inf``
intermediates (a zero entropy), which is why the division runs under
``np.errstate`` -- the selected lanes match the scalar branch
outcomes exactly.

Used by the router's columnar loop to precompute per-(platform, rung)
accuracy columns across the whole request vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["soc_accuracy_vec"]


def soc_accuracy_vec(
    entropies: np.ndarray, entropy_threshold: float
) -> np.ndarray:
    """Element-wise :func:`repro.core.satisfaction.soc_accuracy`."""
    values = np.asarray(entropies, dtype=np.float64)
    if np.any(values < 0) or entropy_threshold <= 0:
        raise ValueError("entropy must be >= 0 and threshold > 0")
    with np.errstate(divide="ignore", over="ignore"):
        degraded = entropy_threshold / values
    return np.where(values <= entropy_threshold, 1.0, degraded)
