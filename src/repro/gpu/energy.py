"""GPUWattch-style energy model (paper Section V, Figs. 14-15).

Chip power is decomposed the way GPUWattch [29] does at the granularity
the paper's experiments need:

* a constant **chip power** (memory controllers, NoC, leakage outside
  the SMs) drawn whenever the GPU is on;
* a per-SM **static power** drawn by every SM that is powered --
  *removable by power gating*, which is exactly the lever P-CNN's
  runtime scheduler pulls on the ``maxSM - optSM`` idle SMs;
* a per-SM **dynamic power** proportional to the SM's issue activity.

The paper's energy comparisons (Fig. 14) are relative between
schedulers, which this decomposition captures: a scheduler that packs
work onto fewer SMs and gates the rest trades a little runtime for a
large static-power saving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.architecture import GPUArchitecture

__all__ = ["PowerState", "power_draw_w", "energy_j"]


@dataclass(frozen=True)
class PowerState:
    """Instantaneous power configuration of the chip.

    Attributes
    ----------
    powered_sms:
        SMs that are powered on (not gated).
    busy_sms:
        SMs with resident CTAs; must not exceed ``powered_sms``.
    activity:
        Average issue activity of the busy SMs in [0, 1].
    """

    powered_sms: int
    busy_sms: int
    activity: float = 1.0

    def __post_init__(self) -> None:
        if self.powered_sms < 0 or self.busy_sms < 0:
            raise ValueError("SM counts must be non-negative")
        if self.busy_sms > self.powered_sms:
            raise ValueError(
                "busy_sms (%d) cannot exceed powered_sms (%d)"
                % (self.busy_sms, self.powered_sms)
            )
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")


def power_draw_w(arch: GPUArchitecture, state: PowerState) -> float:
    """Instantaneous chip power in watts for ``state``.

    ``P = P_idle + powered * P_sm_static + busy * activity * P_sm_dyn``
    """
    if state.powered_sms > arch.n_sms:
        raise ValueError(
            "powered_sms (%d) exceeds %s's %d SMs"
            % (state.powered_sms, arch.name, arch.n_sms)
        )
    return (
        arch.idle_power_w
        + state.powered_sms * arch.sm_static_power_w
        + state.busy_sms * state.activity * arch.sm_dynamic_power_w
    )


def energy_j(arch: GPUArchitecture, state: PowerState, duration_s: float) -> float:
    """Energy in joules of holding ``state`` for ``duration_s`` seconds."""
    if duration_s < 0:
        raise ValueError("duration must be non-negative")
    return power_draw_w(arch, state) * duration_s

