"""Tests for repro.gpu.energy: the GPUWattch-style power model."""

import pytest

from repro.gpu import JETSON_TX1, K20C
from repro.gpu.energy import PowerState, energy_j, power_draw_w


class TestPowerDraw:
    def test_idle_chip(self):
        state = PowerState(powered_sms=0, busy_sms=0)
        assert power_draw_w(K20C, state) == pytest.approx(K20C.idle_power_w)

    def test_components_add_up(self):
        state = PowerState(powered_sms=4, busy_sms=2, activity=0.5)
        expected = (
            K20C.idle_power_w
            + 4 * K20C.sm_static_power_w
            + 2 * 0.5 * K20C.sm_dynamic_power_w
        )
        assert power_draw_w(K20C, state) == pytest.approx(expected)

    def test_gating_saves_static_power(self):
        """Power gating removes the static term of idle SMs -- the
        paper's QPE+ energy lever."""
        all_on = PowerState(powered_sms=K20C.n_sms, busy_sms=4, activity=0.8)
        gated = PowerState(powered_sms=4, busy_sms=4, activity=0.8)
        saving = power_draw_w(K20C, all_on) - power_draw_w(K20C, gated)
        assert saving == pytest.approx(
            (K20C.n_sms - 4) * K20C.sm_static_power_w
        )

    def test_rejects_busy_exceeding_powered(self):
        with pytest.raises(ValueError):
            PowerState(powered_sms=2, busy_sms=3)

    def test_rejects_bad_activity(self):
        with pytest.raises(ValueError):
            PowerState(powered_sms=1, busy_sms=1, activity=1.5)

    def test_rejects_overpowered_chip(self):
        with pytest.raises(ValueError):
            power_draw_w(JETSON_TX1, PowerState(powered_sms=3, busy_sms=0))

    def test_mobile_chip_draws_less(self):
        state_k20 = PowerState(powered_sms=K20C.n_sms, busy_sms=K20C.n_sms)
        state_tx1 = PowerState(
            powered_sms=JETSON_TX1.n_sms, busy_sms=JETSON_TX1.n_sms
        )
        assert power_draw_w(JETSON_TX1, state_tx1) < power_draw_w(K20C, state_k20)


class TestEnergy:
    def test_energy_is_power_times_time(self):
        state = PowerState(powered_sms=2, busy_sms=1, activity=1.0)
        assert energy_j(K20C, state, 2.0) == pytest.approx(
            2.0 * power_draw_w(K20C, state)
        )

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            energy_j(K20C, PowerState(1, 1), -1.0)

