"""CTA (thread-block) schedulers: Round-Robin and Priority-SM (Fig. 7).

Hardware GPUs dispatch CTAs to SMs round-robin, filling every SM to its
occupancy limit -- fine for big grids, wasteful for the small grids of
non-batched CNN inference, where it smears a handful of CTAs across all
SMs and keeps every SM powered.

The paper's Priority-SM (PSM) scheduler instead packs ``optTLP`` CTAs
onto each SM in priority order, occupying only ``optSM`` SMs; the rest
can be power gated or released to other kernels.  Fig. 7's claim -- PSM
achieves nearly the same performance with half the SMs -- is reproduced
by ``benchmarks/bench_fig7_rr_vs_psm.py``.

Schedulers are small strategy objects: given the per-SM residency
vector they return the SM that should receive the next CTA, or ``None``
when no SM they are willing to use has a free slot.  The simulator
asks for every free slot at once through :meth:`CTAScheduler.fill`,
which answers in ``(sm, count)`` runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["CTAScheduler", "RoundRobinScheduler", "PrioritySMScheduler"]


class CTAScheduler:
    """Strategy interface for CTA dispatch.

    Subclasses implement :meth:`select_sm`.  ``residency[i]`` is the
    number of CTAs currently resident on SM ``i``; ``max_ctas_per_sm``
    is the kernel's occupancy limit on this architecture.
    """

    name = "abstract"

    def select_sm(
        self, residency: Sequence[int], max_ctas_per_sm: int
    ) -> Optional[int]:
        """Return the SM index to dispatch the next CTA to, or None."""
        raise NotImplementedError

    def fill(
        self, residency: Sequence[int], max_ctas_per_sm: int, n: int
    ) -> List[Tuple[int, int]]:
        """Dispatch up to ``n`` CTAs at once, as :meth:`select_sm` would
        one by one until it returns None.

        Returns ``(sm, count)`` runs in dispatch order, consecutive
        picks of one SM merged; ``residency`` is left as it was and any
        per-launch state (Round-Robin's pointer) ends where ``n``
        single picks would leave it.  This base version makes those
        picks over its own copy of ``residency``.
        """
        residency = list(residency)
        runs: List[Tuple[int, int]] = []
        for _ in range(n):
            index = self.select_sm(residency, max_ctas_per_sm)
            if index is None:
                break
            residency[index] += 1
            if runs and runs[-1][0] == index:
                runs[-1] = (index, runs[-1][1] + 1)
            else:
                runs.append((index, 1))
        return runs

    def powered_sms(self, n_sms: int) -> int:
        """SMs that must stay powered while this scheduler runs."""
        return n_sms

    def reset(self) -> None:
        """Clear per-launch state (called once per kernel launch)."""


class RoundRobinScheduler(CTAScheduler):
    """Hardware-style dispatch: cycle over all SMs, skip full ones.

    Every SM ends up occupied (Fig. 7 left), so none can be gated.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def select_sm(
        self, residency: Sequence[int], max_ctas_per_sm: int
    ) -> Optional[int]:
        n_sms = len(residency)
        for offset in range(n_sms):
            index = (self._next + offset) % n_sms
            if residency[index] < max_ctas_per_sm:
                self._next = (index + 1) % n_sms
                return index
        return None


class PrioritySMScheduler(CTAScheduler):
    """P-CNN's packing dispatch (Section IV.C.2).

    Fills SM 0 to ``opt_tlp`` CTAs, then SM 1, ... up to ``opt_sm``
    SMs.  Once a CTA retires, its slot is refilled (still restricted to
    the first ``opt_sm`` SMs), so steady-state residency is ``opt_tlp``
    per occupied SM.  The ``n_sms - opt_sm`` never-touched SMs can be
    power gated -- :meth:`powered_sms` reports only ``opt_sm``.
    """

    name = "priority-sm"

    def __init__(self, opt_tlp: int, opt_sm: int) -> None:
        if opt_tlp < 1:
            raise ValueError("opt_tlp must be >= 1, got %r" % (opt_tlp,))
        if opt_sm < 1:
            raise ValueError("opt_sm must be >= 1, got %r" % (opt_sm,))
        self.opt_tlp = opt_tlp
        self.opt_sm = opt_sm

    def powered_sms(self, n_sms: int) -> int:
        return min(self.opt_sm, n_sms)

    def select_sm(
        self, residency: Sequence[int], max_ctas_per_sm: int
    ) -> Optional[int]:
        limit = min(self.opt_tlp, max_ctas_per_sm)
        usable = min(self.opt_sm, len(residency))
        for index in range(usable):
            if residency[index] < limit:
                return index
        return None

    def fill(
        self, residency: Sequence[int], max_ctas_per_sm: int, n: int
    ) -> List[Tuple[int, int]]:
        """Closed form of :meth:`select_sm`'s packing: top each usable
        SM up to the limit in priority order until ``n`` are placed."""
        limit = min(self.opt_tlp, max_ctas_per_sm)
        runs: List[Tuple[int, int]] = []
        for index in range(min(self.opt_sm, len(residency))):
            if n <= 0:
                break
            free = limit - residency[index]
            if free > 0:
                take = min(free, n)
                runs.append((index, take))
                n -= take
        return runs
