"""Struct-of-arrays primitives for the router's columnar fast loop.

:meth:`repro.serving.router.RequestRouter.run` serves every plain run
(no faults, no enabled instrumentation, no control plane) with the
columnar loop in :mod:`repro.serving.vec_router`, built on:

* :mod:`repro.sim.vec.events` -- a ``(time, seq)`` keyed binary heap
  over parallel scalar columns (:class:`SoAEventQueue`, pop-order
  bit-identical to ``heapq``) and the column-major arrival stream
  (:class:`ArrivalColumns`, ordering bit-identical to
  :func:`repro.serving.request.merge_loads`);
* :mod:`repro.sim.vec.scoring` -- :func:`soc_accuracy_vec`, the SoC
  accuracy curve evaluated across whole request vectors with the
  exact scalar op order of :mod:`repro.core.satisfaction`.

The equivalence contract -- plain-run fingerprints bit-identical to
the event loop's on every seed -- is enforced by
``tests/sim/test_vec_equivalence.py``,
``tests/sim/test_soa_events.py`` and
``tests/serving/test_backend_equivalence.py``.
"""

from repro.sim.vec.events import ArrivalColumns, SoAEventQueue
from repro.sim.vec.scoring import soc_accuracy_vec

__all__ = [
    "ArrivalColumns",
    "SoAEventQueue",
    "soc_accuracy_vec",
]
