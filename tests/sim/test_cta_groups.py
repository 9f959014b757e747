"""The group simulator against its per-CTA oracle, bit for bit.

:func:`repro.sim.engine.simulate_kernel` steps groups of CTAs and asks
schedulers for whole runs through :meth:`CTAScheduler.fill`;
:mod:`tests.sim.cta_loop` keeps the one-CTA-at-a-time loop it
replaced.  Every :class:`KernelResult` field (floats compared by their
bits), every trace row and every raised error must match.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offline.kernel_tuning import PCNN_BACKEND
from repro.gpu import COMMON_TILES, JETSON_TX1, K20C, TITAN_X
from repro.gpu.architecture import list_architectures
from repro.gpu.kernels import GemmShape, make_kernel
from repro.gpu.libraries import CUBLAS, NERVANA
from repro.sim.cta_scheduler import (
    CTAScheduler,
    PrioritySMScheduler,
    RoundRobinScheduler,
)
from repro.sim.engine import simulate_kernel
from tests.sim.cta_loop import simulate_kernel_per_cta

ARCHS = list_architectures(include_extensions=True)
LIBRARIES = (None, CUBLAS, NERVANA, PCNN_BACKEND)


class RandomStallScheduler(CTAScheduler):
    """Seeded random picks among SMs with a free slot, stalling at
    random while anything is resident.  SMs then refill while earlier
    CTAs still run on them, so an SM holds several groups at different
    progress -- a state Round-Robin and Priority-SM never reach.  It
    has no ``fill`` of its own: the base class's pick-by-pick one runs.
    """

    name = "random-stall"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def select_sm(self, residency, max_ctas_per_sm):
        if any(residency) and self.rng.random() < 0.4:
            return None
        free = [i for i, r in enumerate(residency) if r < max_ctas_per_sm]
        return self.rng.choice(free) if free else None


def _bits(value):
    """``value`` with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(_bits(k), _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _fingerprint(result):
    trace = result.trace
    rows = None
    if trace is not None:
        rows = (
            [(e.cycle, e.kind, e.cta_id, e.sm_id) for e in trace.events],
            trace.busy_cycles_per_sm,
            trace.ctas_per_sm,
        )
    fields = (
        result.cycles, result.seconds, result.grid_size, result.sms_used,
        result.powered_sms, result.avg_tlp, result.activity,
        result.energy_joules, result.dram_bytes, rows,
    )
    return _bits(fields)


def _outcome(simulate, make_scheduler, *args, **kwargs):
    """The result's bits, or the raised error's type and message."""
    try:
        return _fingerprint(simulate(*args, scheduler=make_scheduler(), **kwargs))
    except (ValueError, RuntimeError) as error:
        return (type(error).__name__, str(error))


def assert_matches_oracle(arch, kernel, shape, make_scheduler, **kwargs):
    grouped = _outcome(simulate_kernel, make_scheduler, arch, kernel, shape, **kwargs)
    oracle = _outcome(
        simulate_kernel_per_cta, make_scheduler, arch, kernel, shape, **kwargs
    )
    assert grouped == oracle


SCHEDULERS = st.one_of(
    st.just(lambda: None),
    st.just(RoundRobinScheduler),
    st.builds(
        lambda tlp, sm: (lambda: PrioritySMScheduler(opt_tlp=tlp, opt_sm=sm)),
        st.integers(1, 16),
        st.integers(1, 30),
    ),
    st.builds(
        lambda seed: (lambda: RandomStallScheduler(seed)),
        st.integers(0, 2**32 - 1),
    ),
)


class TestGroupsMatchPerCTALoop:
    @given(
        arch=st.sampled_from(ARCHS),
        tile=st.sampled_from(COMMON_TILES + ((16, 16), (32, 64))),
        m_rows=st.integers(1, 640),
        n_cols=st.integers(1, 1600),
        k_depth=st.integers(1, 4800),
        library=st.sampled_from(LIBRARIES),
        make_scheduler=SCHEDULERS,
        max_ctas_per_sm=st.one_of(st.none(), st.integers(1, 16)),
        collect_trace=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sweep(
        self, arch, tile, m_rows, n_cols, k_depth, library, make_scheduler,
        max_ctas_per_sm, collect_trace,
    ):
        kernel = make_kernel(*tile)
        shape = GemmShape(m_rows, n_cols, k_depth)
        assert_matches_oracle(
            arch, kernel, shape, make_scheduler, library=library,
            max_ctas_per_sm=max_ctas_per_sm, collect_trace=collect_trace,
        )

    @pytest.mark.parametrize("arch", (K20C, TITAN_X, JETSON_TX1), ids=lambda a: a.name)
    @pytest.mark.parametrize(
        "make_scheduler",
        (
            RoundRobinScheduler,
            lambda: PrioritySMScheduler(opt_tlp=2, opt_sm=2),
            lambda: PrioritySMScheduler(opt_tlp=3, opt_sm=5),
        ),
        ids=("rr", "psm-2x2", "psm-3x5"),
    )
    def test_spilled_kernel_with_trace(self, arch, make_scheduler):
        kernel = make_kernel(64, 64, block_size=256)
        spilled = kernel.with_spilling(kernel.regs_per_thread - 20, 40, 40)
        assert_matches_oracle(
            arch, spilled, GemmShape(128, 729, 1200), make_scheduler,
            library=PCNN_BACKEND, max_ctas_per_sm=4, collect_trace=True,
        )

    def test_unfittable_kernel_error_matches(self):
        # A 256x256 tile's shared memory exceeds the SM: occupancy 0.
        assert_matches_oracle(
            JETSON_TX1, make_kernel(256, 256), GemmShape(512, 512, 64),
            lambda: None,
        )

    def test_deadlock_error_matches(self):
        class Refuses(CTAScheduler):
            def select_sm(self, residency, max_ctas_per_sm):
                return None

        assert_matches_oracle(
            K20C, make_kernel(64, 64), GemmShape(128, 128, 64), Refuses,
        )


def _picks(scheduler, residency, cap, n):
    """``n`` single ``select_sm`` picks as merged runs."""
    residency = list(residency)
    runs = []
    for _ in range(n):
        index = scheduler.select_sm(residency, cap)
        if index is None:
            break
        residency[index] += 1
        if runs and runs[-1][0] == index:
            runs[-1] = (index, runs[-1][1] + 1)
        else:
            runs.append((index, 1))
    return runs


class TestFill:
    @given(
        data=st.data(),
        n_sms=st.integers(1, 24),
        cap=st.integers(1, 12),
        n=st.integers(0, 400),
        kind=st.sampled_from(("rr", "psm", "random-stall")),
        opt_tlp=st.integers(1, 16),
        opt_sm=st.integers(1, 30),
        pointer=st.integers(0, 23),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_fill_is_repeated_select_sm(
        self, data, n_sms, cap, n, kind, opt_tlp, opt_sm, pointer, seed
    ):
        residency = data.draw(
            st.lists(st.integers(0, cap), min_size=n_sms, max_size=n_sms)
        )

        empty = [0] * n_sms

        def make():
            if kind == "rr":
                scheduler = RoundRobinScheduler()
                _picks(scheduler, empty, 1, pointer % n_sms)  # move the pointer
                return scheduler
            if kind == "psm":
                return PrioritySMScheduler(opt_tlp=opt_tlp, opt_sm=opt_sm)
            return RandomStallScheduler(seed)

        filled, picked = make(), make()
        before = list(residency)
        assert filled.fill(residency, cap, n) == _picks(picked, residency, cap, n)
        assert residency == before
        # Per-launch state ends in the same place (Round-Robin's
        # pointer, the random stream): the next picks agree.
        assert _picks(filled, empty, 1, n_sms) == _picks(picked, empty, 1, n_sms)

    def test_round_robin_pointer_resumes_where_picks_leave_it(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.fill([0, 0, 0], 2, 4) == [(0, 1), (1, 1), (2, 1), (0, 1)]
        assert scheduler.fill([2, 1, 1], 2, 5) == [(1, 1), (2, 1)]
        assert scheduler.fill([1, 2, 2], 2, 3) == [(0, 1)]

    def test_priority_sm_packs_in_priority_order(self):
        scheduler = PrioritySMScheduler(opt_tlp=3, opt_sm=2)
        assert scheduler.fill([1, 0, 0, 0], 4, 10) == [(0, 2), (1, 3)]
        assert scheduler.fill([0, 0], 2, 3) == [(0, 2), (1, 1)]
        assert scheduler.fill([0, 0], 2, 0) == []
