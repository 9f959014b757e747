"""Forecaster unit tests: determinism, accuracy tracking, seasonality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import EwmaForecaster, HoltWintersForecaster
from repro.workloads import diurnal_trace


class TestValidation:
    def test_ewma_alpha_range(self):
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=1.5)

    def test_holt_winters_parameter_ranges(self):
        with pytest.raises(ValueError):
            HoltWintersForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            HoltWintersForecaster(beta=1.5)
        with pytest.raises(ValueError):
            HoltWintersForecaster(gamma=-0.1)
        with pytest.raises(ValueError):
            HoltWintersForecaster(season_length=-1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            EwmaForecaster().observe(-1.0)

    def test_horizon_must_be_positive(self):
        forecaster = EwmaForecaster()
        forecaster.observe(10.0)
        with pytest.raises(ValueError):
            forecaster.forecast(0)


class TestEwma:
    def test_unobserved_forecasts_zero(self):
        assert EwmaForecaster().forecast(1) == 0.0

    def test_first_observation_sets_level(self):
        forecaster = EwmaForecaster(alpha=0.5)
        forecaster.observe(40.0)
        assert forecaster.forecast(1) == 40.0
        # Flat forecast: horizon does not change a level-only model.
        assert forecaster.forecast(5) == 40.0

    def test_constant_stream_converges_exactly(self):
        forecaster = EwmaForecaster(alpha=0.3)
        for _ in range(20):
            forecaster.observe(75.0)
        assert forecaster.forecast(1) == 75.0
        assert forecaster.mae == 0.0
        assert forecaster.mean_rate == 75.0

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        rates = rng.exponential(50.0, 100)
        first = EwmaForecaster(alpha=0.4)
        second = EwmaForecaster(alpha=0.4)
        for rate in rates:
            first.observe(float(rate))
            second.observe(float(rate))
        assert first.forecast(3) == second.forecast(3)
        assert first.mae == second.mae

    def test_mae_scores_before_absorbing(self):
        forecaster = EwmaForecaster(alpha=1.0)
        forecaster.observe(10.0)  # first observation is never scored
        assert forecaster.mae == 0.0
        forecaster.observe(16.0)  # scored against the prior level, 10
        assert forecaster.mae == pytest.approx(6.0)


class TestHoltWinters:
    def test_reduces_to_holt_without_season(self):
        # A perfectly linear ramp is eventually extrapolated exactly.
        forecaster = HoltWintersForecaster(
            alpha=0.8, beta=0.5, gamma=0.0, season_length=0
        )
        for step in range(60):
            forecaster.observe(10.0 + 2.0 * step)
        # Next value continues the ramp: 10 + 2*60 = 130.
        assert forecaster.forecast(1) == pytest.approx(130.0, rel=0.02)
        # Longer horizons extrapolate the trend.
        assert forecaster.forecast(5) > forecaster.forecast(1)

    def test_forecast_clamped_non_negative(self):
        forecaster = HoltWintersForecaster(alpha=0.9, beta=0.9)
        forecaster.observe(100.0)
        forecaster.observe(10.0)  # steep negative trend
        assert forecaster.forecast(50) == 0.0

    def test_seasonal_recovery_on_diurnal_trace(self):
        # The seasonal model, told the true period, must beat a
        # level-only EWMA at one-step prediction on a diurnal stream
        # -- the profile "locks on" after a few seasons.
        window_s = 0.25
        period_s = 4.0
        trace = diurnal_trace(
            n_requests=4000, base_rate_hz=60.0, amplitude=0.8,
            period_s=period_s, seed=11,
        )
        rates = np.bincount(
            np.floor(trace.arrivals_s / window_s).astype(np.int64)
        ) / window_s
        assert len(rates) >= 8 * int(period_s / window_s), (
            "trace too short to span several seasons"
        )
        seasonal = HoltWintersForecaster(
            alpha=0.3, beta=0.05, gamma=0.4,
            season_length=int(period_s / window_s),
        )
        flat = EwmaForecaster(alpha=0.3)
        for rate in rates:
            seasonal.observe(float(rate))
            flat.observe(float(rate))
        assert seasonal.mae < flat.mae, (
            "seasonal HW mae %.2f not better than EWMA mae %.2f"
            % (seasonal.mae, flat.mae)
        )

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        rates = rng.gamma(2.0, 30.0, 200)
        kwargs = dict(alpha=0.4, beta=0.1, gamma=0.3, season_length=16)
        first = HoltWintersForecaster(**kwargs)
        second = HoltWintersForecaster(**kwargs)
        for rate in rates:
            first.observe(float(rate))
            second.observe(float(rate))
        for horizon in (1, 4, 16, 17):
            assert first.forecast(horizon) == second.forecast(horizon)


@settings(max_examples=50, deadline=None)
@given(
    first=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=0, max_size=40,
    ),
    second=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=0, max_size=40,
    ),
)
def test_forecast_invariant_to_trace_merge_order(first, second):
    """Merging two tenants' arrival streams in either order feeds the
    forecaster identical windowed rates, hence identical forecasts --
    the control loop's view depends on the multiset of arrivals, never
    on interleaving order."""
    window_s = 0.5
    merged_ab = np.sort(np.concatenate([first, second]))
    merged_ba = np.sort(np.concatenate([second, first]))

    def forecast_of(arrivals):
        forecaster = EwmaForecaster(alpha=0.6)
        if len(arrivals):
            horizon = float(arrivals[-1])
            n_windows = int(np.floor(horizon / window_s)) + 1
            indices = np.floor(arrivals / window_s).astype(np.int64)
            counts = np.bincount(indices, minlength=n_windows)
            for count in counts:
                forecaster.observe(float(count) / window_s)
        return forecaster.forecast(1), forecaster.mae

    assert forecast_of(merged_ab) == forecast_of(merged_ba)
