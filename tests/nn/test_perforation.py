"""Tests for repro.nn.perforation: sampled grids and interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.models import (
    EXTRA_NETWORKS,
    PAPER_NETWORKS,
    PCNN_NET_SIZES,
    get_network,
)
from repro.nn.perforation import (
    RATE_LADDER,
    PerforationPlan,
    _axis_count,
    _sample_axis,
    make_grid_perforation,
)

#: Every network :func:`get_network` builds by canonical name.
NETWORK_NAMES = (
    sorted(PAPER_NETWORKS)
    + sorted(EXTRA_NETWORKS)
    + ["pcnn-%s" % size for size in PCNN_NET_SIZES]
)


class TestGridConstruction:
    def test_zero_rate_keeps_everything(self):
        grid = make_grid_perforation(10, 12, 0.0)
        assert grid.kept == grid.total == 120
        assert grid.rate == 0.0

    def test_realized_rate_near_nominal(self):
        for rate in (0.1, 0.3, 0.5, 0.7):
            grid = make_grid_perforation(27, 27, rate)
            assert grid.rate == pytest.approx(rate, abs=0.12)

    def test_rows_cols_sorted_unique(self):
        grid = make_grid_perforation(20, 20, 0.6)
        assert np.all(np.diff(grid.rows) > 0)
        assert np.all(np.diff(grid.cols) > 0)

    def test_positions_are_row_major_grid(self):
        grid = make_grid_perforation(6, 6, 0.5)
        positions = grid.positions()
        assert len(positions) == grid.kept
        assert positions.max() < 36
        assert len(np.unique(positions)) == len(positions)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            make_grid_perforation(10, 10, 1.0)
        with pytest.raises(ValueError):
            make_grid_perforation(10, 10, -0.1)

    @given(
        h=st.integers(2, 40), w=st.integers(2, 40),
        rate=st.floats(0.0, 0.85),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, h, w, rate):
        grid = make_grid_perforation(h, w, rate)
        assert 1 <= grid.kept <= grid.total
        assert 0.0 <= grid.rate < 1.0
        assert grid.rows.max() < h and grid.cols.max() < w
        # fill maps index into the sampled arrays
        assert grid.row_map.max() < len(grid.rows)
        assert grid.col_map.max() < len(grid.cols)


class TestInterpolation:
    def test_sampled_positions_exact(self):
        """Fig. 11: sampled outputs are preserved verbatim."""
        grid = make_grid_perforation(9, 9, 0.5)
        rng = np.random.default_rng(0)
        sampled = rng.normal(size=(2, 4, grid.kept))
        dense = grid.interpolate(sampled)
        assert dense.shape == (2, 4, 9, 9)
        block = sampled.reshape(2, 4, len(grid.rows), len(grid.cols))
        for ri, r in enumerate(grid.rows):
            for ci, c in enumerate(grid.cols):
                np.testing.assert_allclose(dense[..., r, c], block[..., ri, ci])

    def test_fills_from_nearest_neighbour(self):
        grid = make_grid_perforation(5, 5, 0.6)
        # mark each sampled point with a unique value
        sampled = np.arange(grid.kept, dtype=float).reshape(1, -1)
        dense = grid.interpolate(sampled)
        # every dense value must be one of the sampled values
        assert set(np.unique(dense)) <= set(range(grid.kept))

    def test_zero_rate_identity(self):
        grid = make_grid_perforation(4, 4, 0.0)
        values = np.arange(16, dtype=float).reshape(1, 16)
        np.testing.assert_array_equal(
            grid.interpolate(values).reshape(16), np.arange(16)
        )

    @given(h=st.integers(3, 20), rate=st.floats(0.0, 0.8))
    @settings(max_examples=40, deadline=None)
    def test_interpolation_preserves_range(self, h, rate):
        grid = make_grid_perforation(h, h, rate)
        rng = np.random.default_rng(42)
        sampled = rng.normal(size=(grid.kept,))
        dense = grid.interpolate(sampled)
        assert dense.min() >= sampled.min() - 1e-12
        assert dense.max() <= sampled.max() + 1e-12


class TestPerforationPlan:
    def test_dense_plan(self):
        plan = PerforationPlan.dense()
        assert plan.is_dense()
        assert plan.rate("anything") == 0.0
        assert plan.grid_for("x", 8, 8) is None
        assert plan.describe() == "dense"

    def test_with_rate_is_immutable(self):
        base = PerforationPlan.dense()
        derived = base.with_rate("conv1", 0.3)
        assert base.is_dense()
        assert derived.rate("conv1") == 0.3

    def test_with_rate_zero_removes(self):
        plan = PerforationPlan({"conv1": 0.3}).with_rate("conv1", 0.0)
        assert plan.is_dense()

    def test_column_fraction_uses_realized_grid(self):
        plan = PerforationPlan({"conv1": 0.5})
        fraction = plan.column_fraction("conv1", 27, 27)
        grid = make_grid_perforation(27, 27, 0.5)
        assert fraction == pytest.approx(grid.kept / grid.total)

    def test_column_fraction_dense(self):
        assert PerforationPlan.dense().column_fraction("c", 27, 27) == 1.0

    @pytest.mark.parametrize("network_name", NETWORK_NAMES)
    def test_column_fraction_counts_what_the_grid_keeps(self, network_name):
        # Counted from the sampled axes, without the interpolation
        # maps: the very int/int quotient the built grid gives.
        for layer in get_network(network_name).conv_layers:
            out_h = layer.output_shape.height
            out_w = layer.output_shape.width
            for rate in RATE_LADDER:
                plan = PerforationPlan({layer.name: rate})
                grid = make_grid_perforation(out_h, out_w, rate)
                fraction = plan.column_fraction(layer.name, out_h, out_w)
                assert fraction.hex() == (grid.kept / grid.total).hex()

    def test_axis_count_is_what_sampling_keeps(self):
        # Brute force over every axis size up to 512 and every keep
        # from below 1 to past the size: the count column_fraction
        # uses never differs from the sampled axis's length.
        mismatches = [
            (size, keep)
            for size in range(1, 513)
            for keep in range(-2, size + 3)
            if len(_sample_axis(size, keep)) != _axis_count(size, keep)
        ]
        assert mismatches == []

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PerforationPlan({"conv1": 1.5})

    def test_describe_lists_rates(self):
        text = PerforationPlan({"conv2": 0.25, "conv1": 0.1}).describe()
        assert "conv1:0.10" in text and "conv2:0.25" in text

    def test_rate_ladder_properties(self):
        assert RATE_LADDER[0] == 0.0
        assert list(RATE_LADDER) == sorted(RATE_LADDER)
        assert all(0.0 <= r < 1.0 for r in RATE_LADDER)
