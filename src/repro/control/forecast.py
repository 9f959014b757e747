"""Per-tenant arrival-rate forecasters: seeded, sim-clock-only.

The control plane feeds each forecaster one observation per control
tick -- the tenant's arrival rate over the window that just closed --
and asks for the rate it should provision for a few ticks ahead.
Everything here is a pure function of the observation sequence: no
wall clock, no ambient entropy, no global RNG (the REP001 determinism
sanitizer covers this package), so two same-seed router runs drive
bit-identical forecasts.

Two models, mirroring the ROADMAP's EWMA/Holt-Winters pair:

* :class:`EwmaForecaster` -- exponentially weighted moving average, a
  level-only tracker.  Fast to react (with a high ``alpha``) and the
  right default for MMPP burst traffic, which has no trend to speak
  of.
* :class:`HoltWintersForecaster` -- additive Holt-Winters: level +
  trend + an additive seasonal profile of ``season_length`` ticks.
  With ``season_length=0`` it reduces to Holt's linear trend.  The
  seasonal profile locks onto diurnal traces
  (:func:`repro.workloads.generators.diurnal_trace`) whose period is
  a known number of control ticks.

Both track their own one-step-ahead accuracy: before absorbing an
observation they score it against the forecast they previously issued
for that tick, accumulating the mean absolute error reported in the
control section of the router report.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["ArrivalForecaster", "EwmaForecaster", "HoltWintersForecaster"]


class ArrivalForecaster:
    """Shared observe/forecast contract plus online error tracking.

    Subclasses implement :meth:`_absorb` (fold one observation into
    model state) and :meth:`_predict` (rate ``horizon`` ticks ahead).
    """

    def __init__(self) -> None:
        self.observations = 0
        self._rate_sum = 0.0
        self._error_sum = 0.0
        self._scored = 0

    def observe(self, rate: float) -> None:
        """Feed one windowed rate observation (requests/second)."""
        if rate < 0:
            raise ValueError("rate must be non-negative, got %r" % (rate,))
        if self.observations > 0:
            self._error_sum += abs(rate - self.forecast(1))
            self._scored += 1
        self._absorb(rate)
        self.observations += 1
        self._rate_sum += rate

    def forecast(self, horizon: int = 1) -> float:
        """The forecast rate ``horizon`` ticks ahead (clamped at 0)."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1, got %r" % (horizon,))
        if self.observations == 0:
            return 0.0
        return max(0.0, self._predict(horizon))

    @property
    def mean_rate(self) -> float:
        """Mean observed rate over every observation."""
        if self.observations == 0:
            return 0.0
        return self._rate_sum / self.observations

    @property
    def mae(self) -> float:
        """Mean absolute one-step-ahead forecast error."""
        if self._scored == 0:
            return 0.0
        return self._error_sum / self._scored

    # -- model hooks ----------------------------------------------------
    def _absorb(self, rate: float) -> None:
        raise NotImplementedError

    def _predict(self, horizon: int) -> float:
        raise NotImplementedError


class EwmaForecaster(ArrivalForecaster):
    """Exponentially weighted moving average of the arrival rate.

    ``alpha`` is the usual smoothing weight on the newest observation;
    the first observation initializes the level directly.  The
    forecast is flat: the current level, at every horizon.
    """

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % (alpha,))
        super().__init__()
        self.alpha = alpha
        self._level = 0.0

    def _absorb(self, rate: float) -> None:
        if self.observations == 0:
            self._level = rate
        else:
            self._level = self.alpha * rate + (1.0 - self.alpha) * self._level

    def _predict(self, horizon: int) -> float:
        return self._level


class HoltWintersForecaster(ArrivalForecaster):
    """Additive Holt-Winters: level + trend + seasonal profile.

    ``season_length`` is the seasonal period in *ticks* (observations);
    0 disables seasonality, reducing the model to Holt's linear trend.
    The seasonal terms start at zero and are learned online with
    weight ``gamma``, so the profile converges after a few seasons --
    the seasonal-recovery test drives several periods of a diurnal
    trace through the model and asserts the forecast tracks the swing
    better than a level-only EWMA.
    """

    def __init__(
        self,
        alpha: float = 0.4,
        beta: float = 0.1,
        gamma: float = 0.3,
        season_length: int = 0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % (alpha,))
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1], got %r" % (beta,))
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1], got %r" % (gamma,))
        if season_length < 0:
            raise ValueError(
                "season_length must be >= 0, got %r" % (season_length,)
            )
        super().__init__()
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_length = season_length
        self._level = 0.0
        self._trend = 0.0
        self._seasonal: List[float] = [0.0] * season_length
        self._phase = 0  # index of the *next* observation's season slot

    def _absorb(self, rate: float) -> None:
        seasonal = (
            self._seasonal[self._phase] if self.season_length else 0.0
        )
        if self.observations == 0:
            self._level = rate - seasonal
            self._trend = 0.0
        else:
            previous_level = self._level
            self._level = (
                self.alpha * (rate - seasonal)
                + (1.0 - self.alpha) * (self._level + self._trend)
            )
            self._trend = (
                self.beta * (self._level - previous_level)
                + (1.0 - self.beta) * self._trend
            )
        if self.season_length:
            self._seasonal[self._phase] = (
                self.gamma * (rate - self._level)
                + (1.0 - self.gamma) * seasonal
            )
            self._phase = (self._phase + 1) % self.season_length

    def _predict(self, horizon: int) -> float:
        seasonal = 0.0
        if self.season_length:
            slot = (self._phase + horizon - 1) % self.season_length
            seasonal = self._seasonal[slot]
        return self._level + horizon * self._trend + seasonal
