"""Host-speed correction for op and set-up times.

On a shared host the same op runs 1.5-2x slower for seconds to minutes
at a time (neighbours on the physical core, memory bandwidth), and the
process's CPU time slows with it, so no statistic taken inside one run
removes a slow phase that outlasts the run.  Every timed step is
therefore bracketed by a fixed reference loop -- pure Python, no
``repro`` code, collector off -- and rescaled to the host speed at
which that loop takes :data:`REFERENCE_S`::

    corrected = raw * REFERENCE_S / mean(reference before, reference after)

A change to the program moves ``raw`` and leaves the reference alone,
so corrected times compare commits; a slow phase moves both.
"""

from __future__ import annotations

import gc
import hashlib
import json
from time import perf_counter
from typing import Callable, List, Tuple

#: Seconds :func:`reference_work` takes on a quiet 2-vCPU KVM guest of
#: an Intel Xeon (Sapphire Rapids) host under CPython 3.11; corrected
#: times read as seconds on that host.
REFERENCE_S = 0.1

_TENANTS = ("interactive", "background", "interactive-s0", "background-s1")


def reference_work() -> str:
    """Fixed work shaped like the program's hot paths: build records,
    sort them, render canonical JSON, hash it."""
    rows = [
        {
            "rid": index,
            "time_s": (index * 0.37) % 11.0,
            "tenant": _TENANTS[index % 4],
            "request_ids": [index, index + 1],
        }
        for index in range(20000)
    ]
    rows.sort(key=lambda row: (row["time_s"], row["rid"]))
    total = 0
    for row in rows:
        total += row["rid"] * len(row["tenant"]) % 7
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(("%s%d" % (text, total)).encode()).hexdigest()


def reference_seconds() -> float:
    """One timed run of the reference loop with the collector off, so
    its time does not grow with the program's heap."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Times steps back to back, running the reference loop between
    them; each step is corrected by the references on either side."""

    def __init__(self) -> None:
        self.references: List[float] = [reference_seconds()]

    def time(self, step: Callable[[], object]) -> Tuple[float, float, object]:
        """``(raw seconds, corrected seconds, step's result)``."""
        start = perf_counter()
        try:
            result = step()
        finally:
            raw = perf_counter() - start
            self.references.append(reference_seconds())
        return raw, raw * self.factor(), result

    def factor(self) -> float:
        """Correction for the step that ended last."""
        before, after = self.references[-2], self.references[-1]
        return REFERENCE_S / ((before + after) / 2.0)
