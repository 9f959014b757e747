"""Tests for repro.core.offline: kernel tuning, resource/time models,
batch selection and the compiler."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec, TaskClass
from repro.core.offline import (
    PCNN_BACKEND,
    OfflineCompiler,
    candidate_kernels,
    eq12_layer_time,
    initial_batch,
    kernel_score,
    layer_time,
    max_batch_fitting_memory,
    opt_sm,
    s_kernel,
    shrink_batch,
    tune_layer_kernel,
)
from repro.core.satisfaction import TimeRequirement
from repro.gpu import GTX_970M, JETSON_TX1, K20C, list_architectures
from repro.gpu.kernels import GemmShape
from repro.gpu.spilling import plan_spill, stair_points
from repro.nn.models import alexnet, vgg16
from repro.nn.perforation import PerforationPlan


class TestResourceModel:
    def test_paper_example(self):
        """Eq. 11's worked example: G=40, optTLP=3, 10 SMs -> optSM=7."""
        ten_sm = GTX_970M  # 10 SMs
        assert ten_sm.n_sms == 10
        assert opt_sm(ten_sm, grid_size=40, opt_tlp=3) == 7

    def test_small_grid_releases_sms(self):
        assert opt_sm(K20C, grid_size=6, opt_tlp=1) == 6

    def test_never_exceeds_chip(self):
        assert opt_sm(K20C, grid_size=10**6, opt_tlp=1) == K20C.n_sms

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            opt_sm(K20C, 0, 1)
        with pytest.raises(ValueError):
            opt_sm(K20C, 1, 0)

    @given(grid=st.integers(1, 5000), tlp=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_eq11_invariant(self, grid, tlp):
        """The chosen optSM preserves the full-chip invocation count."""
        sms = opt_sm(K20C, grid, tlp)
        full = math.ceil(grid / (tlp * K20C.n_sms))
        assert math.ceil(grid / (tlp * sms)) == full
        # minimality: one fewer SM would add a wave (when legal)
        if sms > 1:
            assert math.ceil(grid / (tlp * (sms - 1))) > full or sms == K20C.n_sms


class TestKernelTuning:
    def test_candidates_fit_shared_memory(self, any_arch):
        for kernel in candidate_kernels(any_arch):
            assert kernel.shared_mem_bytes <= any_arch.shared_mem_per_sm

    def test_candidates_include_transposes(self):
        tiles = {k.tile for k in candidate_kernels(K20C)}
        assert (64, 128) in tiles and (128, 64) in tiles

    def test_tuned_kernel_is_a_stair_point(self):
        shape = GemmShape(128, 729, 1200)
        tuned = tune_layer_kernel(K20C, shape)
        base = tuned.kernel.with_spilling(
            tuned.kernel.regs_per_thread
            + tuned.spill.spilled_registers,
            0,
            0,
        )
        points = stair_points(K20C, base)
        assert (tuned.tlp, tuned.kernel.regs_per_thread) in points

    def test_tuned_beats_median_candidate(self):
        """Coordinated tuning should never be worse than an arbitrary
        untuned candidate."""
        shape = GemmShape(128, 729, 1200)
        tuned = tune_layer_kernel(K20C, shape)
        scores = []
        for kernel in candidate_kernels(K20C):
            tlp, _ = stair_points(K20C, kernel)[0]
            scores.append(kernel_score(K20C, kernel, shape, tlp))
        assert tuned.score <= min(scores) + 1e-12

    def test_s_kernel_literal_zero_cases(self):
        """Eq. 10 degenerates to zero for exact-fit unspilled kernels --
        documented behaviour that motivates the robust score."""
        shape = GemmShape(128, 128, 512)
        kernels = candidate_kernels(K20C)
        exact = next(k for k in kernels if k.tile == (64, 64))
        plan = plan_spill(K20C, exact, exact.regs_per_thread, 1)
        assert s_kernel(K20C, exact, shape, 1, plan) == 0.0

    def test_s_kernel_positive_with_waste_and_spill(self):
        shape = GemmShape(100, 700, 512)  # padding waste
        kernels = candidate_kernels(K20C)
        kernel = next(k for k in kernels if k.tile == (64, 64))
        points = stair_points(K20C, kernel)
        tlp, regs = points[-1]
        if regs < kernel.regs_per_thread:
            plan = plan_spill(K20C, kernel, regs, tlp)
            assert s_kernel(K20C, kernel, shape, tlp, plan) > 0.0

    def test_small_grids_prefer_smaller_tiles(self):
        """Section III.D's trade-off: tiny result matrices should tune
        to smaller tiles than huge ones."""
        tiny = tune_layer_kernel(JETSON_TX1, GemmShape(64, 169, 512))
        huge = tune_layer_kernel(JETSON_TX1, GemmShape(512, 50176, 4608))
        assert tiny.kernel.tile_elements <= huge.kernel.tile_elements


def _same_tuned(got, want):
    """Field for field, float bits included."""
    assert got == want
    assert got.score.hex() == want.score.hex()
    assert got.s_kernel_value.hex() == want.s_kernel_value.hex()


class TestCandidatesOncePerCompiler:
    """``OfflineCompiler`` scores one candidate set per arch; every
    tune equals ``tune_layer_kernel``, which rebuilds the set, and
    every shape's decision holds that tune."""

    def test_every_shape_a_fleet_build_tunes(self):
        from repro.serving import FleetSpec

        fleet = FleetSpec(
            network="alexnet",
            spec=ApplicationSpec(
                "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
                entropy_slack=0.30,
            ),
            gpus=("k20c", "tx1"),
        ).build()
        compilers = list(fleet.engine._compilers.values())
        assert len(compilers) == 2
        for compiler in compilers:
            assert len(compiler._decisions) > 10
            for shape, decision in compiler._decisions.items():
                _same_tuned(
                    decision.tuned,
                    tune_layer_kernel(
                        compiler.arch, shape, backend=compiler.backend
                    ),
                )

    @pytest.mark.parametrize(
        "arch",
        list_architectures(include_extensions=True),
        ids=lambda arch: arch.name,
    )
    @given(
        shapes=st.lists(
            st.tuples(
                st.integers(1, 4096), st.integers(1, 60000),
                st.integers(1, 9216),
            ),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_shape_sweep(self, arch, shapes):
        compiler = OfflineCompiler(arch)
        for m_rows, n_cols, k_depth in shapes:
            shape = GemmShape(m_rows, n_cols, k_depth)
            _same_tuned(compiler._tune(shape), tune_layer_kernel(arch, shape))


class TestTimeModel:
    def test_layer_time_scales_with_columns(self):
        shape1 = GemmShape(128, 729, 1200)
        shape4 = GemmShape(128, 729 * 4, 1200)
        tuned = tune_layer_kernel(K20C, shape4)
        t1 = layer_time(K20C, tuned, shape1, n_sms=13)
        t4 = layer_time(K20C, tuned, shape4, n_sms=13)
        assert t4 > t1

    def test_gemm_count_multiplies(self):
        shape = GemmShape(128, 729, 1200)
        tuned = tune_layer_kernel(K20C, shape)
        single = layer_time(K20C, tuned, shape, n_sms=13, gemm_count=1)
        double = layer_time(K20C, tuned, shape, n_sms=13, gemm_count=2)
        assert double == pytest.approx(2 * single)

    def test_eq12_correlates_with_wave_model(self):
        """The literal Eq. 12 and the wave model agree within a small
        constant factor on AlexNet's conv layers."""
        net = alexnet()
        ratios = []
        for layer in net.conv_layers:
            shape = net.gemm_shape(layer, batch=8)
            tuned = tune_layer_kernel(K20C, shape)
            wave = layer_time(K20C, tuned, shape, n_sms=13, tlp=tuned.tlp)
            literal = eq12_layer_time(K20C, tuned, shape, n_sms=13)
            ratios.append(wave / literal)
        assert max(ratios) / min(ratios) < 6.0

    def test_rejects_bad_gemm_count(self):
        shape = GemmShape(1, 1, 1)
        tuned = tune_layer_kernel(K20C, shape)
        with pytest.raises(ValueError):
            layer_time(K20C, tuned, shape, n_sms=1, gemm_count=0)


class TestBatchSelection:
    def test_initial_batch_floor(self):
        req = TimeRequirement.interactive()
        assert initial_batch(req, data_rate_hz=50.0) == 5
        assert initial_batch(req, data_rate_hz=1.0) == 1

    def test_initial_batch_rejects_background(self):
        with pytest.raises(ValueError):
            initial_batch(TimeRequirement.background(), 1.0)

    def test_shrink_batch_eq13(self):
        assert shrink_batch(10, t_user=0.1, t_predicted=0.2) == 5
        assert shrink_batch(10, t_user=0.09, t_predicted=0.2) == 4

    def test_shrink_always_decreases(self):
        assert shrink_batch(10, 0.5, 0.500001) == 9
        assert shrink_batch(1, 0.01, 1.0) == 1

    def test_memory_cap_binary_search(self):
        profile = vgg16().memory_profile()
        cap = max_batch_fitting_memory(JETSON_TX1, profile, PCNN_BACKEND)
        from repro.gpu.memory import fits_in_memory

        assert fits_in_memory(JETSON_TX1, profile, PCNN_BACKEND, cap)
        assert not fits_in_memory(JETSON_TX1, profile, PCNN_BACKEND, cap + 1)


class TestCompiler:
    @pytest.fixture(scope="class")
    def compiler(self):
        return OfflineCompiler(JETSON_TX1)

    @pytest.fixture(scope="class")
    def net(self):
        return alexnet()

    def test_plan_covers_all_gemm_layers(self, compiler, net):
        plan = compiler.compile_with_batch(net, 1)
        names = [s.name for s in plan.schedules]
        assert names == [
            "conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8",
        ]

    def test_grouped_layers_counted(self, compiler, net):
        plan = compiler.compile_with_batch(net, 1)
        assert plan.schedule_for("conv2").gemm_count == 2
        assert plan.schedule_for("conv1").gemm_count == 1

    def test_scheduling_tlp_capped_by_spread(self, compiler, net):
        """The PSM packing fix: scheduling TLP never exceeds the grid's
        natural spread over the chip."""
        plan = compiler.compile_with_batch(net, 1)
        for schedule in plan.schedules:
            spread = math.ceil(schedule.grid_size / JETSON_TX1.n_sms)
            assert schedule.opt_tlp <= max(1, spread)

    def test_opt_sm_preserves_waves(self, compiler, net):
        plan = compiler.compile_with_batch(net, 1)
        for s in plan.schedules:
            full = math.ceil(s.grid_size / (s.opt_tlp * JETSON_TX1.n_sms))
            chosen = math.ceil(s.grid_size / (s.opt_tlp * s.opt_sm))
            assert chosen == full

    def test_perforation_reduces_conv_time(self, compiler, net):
        dense = compiler.compile_with_batch(net, 1)
        plan = PerforationPlan({layer.name: 0.6 for layer in net.conv_layers})
        fast = compiler.compile_with_batch(net, 1, plan)
        dense_conv = sum(
            s.time_s for s in dense.schedules if s.name.startswith("conv")
        )
        fast_conv = sum(
            s.time_s for s in fast.schedules if s.name.startswith("conv")
        )
        assert fast_conv < 0.8 * dense_conv

    def test_perforation_leaves_fc_untouched(self, compiler, net):
        dense = compiler.compile_with_batch(net, 1)
        plan = PerforationPlan({layer.name: 0.6 for layer in net.conv_layers})
        fast = compiler.compile_with_batch(net, 1, plan)
        assert fast.schedule_for("fc6").time_s == pytest.approx(
            dense.schedule_for("fc6").time_s
        )

    def test_global_decision_meets_budget_or_bottoms_out(self, compiler, net):
        req = TimeRequirement.interactive()
        plan = compiler.compile(net, req, data_rate_hz=50.0)
        assert plan.total_time_s <= req.budget_s or plan.batch == 1

    def test_background_batch_beats_batch_one_throughput(self, compiler, net):
        batch = compiler.background_batch(net)
        assert batch > 1
        big = compiler.compile_with_batch(net, batch)
        one = compiler.compile_with_batch(net, 1)
        assert big.throughput_ips > 1.5 * one.throughput_ips

    def test_scheduling_table_shape(self, compiler, net):
        plan = compiler.compile_with_batch(net, 1)
        table = plan.scheduling_table()
        assert set(table["conv5"]) == {"opt_sm", "opt_tlp"}

    def test_rejects_bad_batch(self, compiler, net):
        with pytest.raises(ValueError):
            compiler.compile_with_batch(net, 0)

    def test_latency_and_throughput_consistent(self, compiler, net):
        plan = compiler.compile_with_batch(net, 4)
        assert plan.throughput_ips == pytest.approx(4 / plan.latency_s)
