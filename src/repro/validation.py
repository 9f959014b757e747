"""Boundary checks shared by the public configs and trace generators.

NaN compares false against every bound, so it slips past one-sided
range checks like ``value <= 0``; an infinity passes them outright.
Either one then surfaces far from its source -- a NaN arrival pops an
empty event heap, a NaN timeout never fires.  :func:`require_finite`
stops them at the boundary with the offending name in the message.
"""

from __future__ import annotations

import math

__all__ = ["require_finite"]


def require_finite(**values: object) -> None:
    """Raise ``ValueError`` naming the first float value that is NaN
    or infinite.

    Non-float values (ints, flags, strings, ``None`` for "unset") are
    not this check's business and pass, so a dataclass can validate
    every field at once with ``require_finite(**vars(self))``.
    """
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
