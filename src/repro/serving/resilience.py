"""Resilience primitives: retry budgets and circuit breakers.

Two small, deterministic state machines the router leans on when the
fault layer (:mod:`repro.faults`) starts breaking things:

* :class:`RetryPolicy` -- deadline-aware retry with budget-capped
  exponential backoff.  A failed request may be re-admitted up to
  ``limit`` times; each retry waits ``backoff_s * growth**(attempt-1)``,
  *capped at half the request's remaining deadline slack* so a retry
  is never scheduled past the point where it could still matter.  A
  request whose deadline has already passed (or whose attempts are
  exhausted) gets no backoff -- the router rejects it explicitly
  instead of losing it.
* :class:`CircuitBreaker` -- the classic closed -> open -> half-open
  machine, per platform.  ``failure_threshold`` consecutive batch
  failures open the breaker (no dispatches); after ``cooldown_s`` it
  half-opens and admits exactly one *probe* batch.  A successful probe
  closes the breaker; a failed probe re-opens it and restarts the
  cooldown.  All transitions are driven by the router's simulated
  clock, so breaker behaviour is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "CircuitBreaker", "BREAKER_STATES"]

#: Circuit-breaker state names, in escalation order.
BREAKER_STATES = ("closed", "open", "half-open")


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry budget with capped exponential backoff."""

    limit: int = 2
    backoff_s: float = 0.05
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError("limit must be >= 0, got %r" % (self.limit,))
        if self.backoff_s <= 0:
            raise ValueError(
                "backoff_s must be positive, got %r" % (self.backoff_s,)
            )
        if self.growth < 1.0:
            raise ValueError(
                "growth must be >= 1.0, got %r" % (self.growth,)
            )

    def backoff_for(
        self, attempt: int, now: float, deadline_s: float
    ) -> Optional[float]:
        """Delay before retry number ``attempt`` (1-based) of a request
        due at ``deadline_s`` (infinite for background), or None.

        None means the budget is spent: attempts exhausted, or the
        request's hard deadline has already passed.  Otherwise the
        exponential delay is capped at half the remaining deadline
        slack, so the retry still leaves room to execute.
        """
        if attempt > self.limit:
            return None
        delay = self.backoff_s * self.growth ** (attempt - 1)
        if math.isfinite(deadline_s):
            slack = deadline_s - now
            if slack <= 0.0:
                return None
            delay = min(delay, 0.5 * slack)
        return delay


class CircuitBreaker:
    """Per-platform closed -> open -> half-open breaker.

    The owner reports outcomes (:meth:`on_failure`, :meth:`on_success`)
    and dispatch departures (:meth:`on_dispatch`); the breaker answers
    :meth:`allows` before every launch.  State-changing calls return
    the event-log kind of the transition they caused
    (``"breaker_open"``, ``"breaker_half_open"``, ``"breaker_close"``)
    or None, so the router can record exactly what happened.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown_s: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1, got %r"
                % (failure_threshold,)
            )
        if cooldown_s <= 0:
            raise ValueError(
                "cooldown_s must be positive, got %r" % (cooldown_s,)
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opens = 0
        self.closes = 0
        self._state = "closed"
        self._opened_at: Optional[float] = None
        self._probe_inflight = False

    def state(self, now: float) -> str:
        """The effective state at ``now`` (open lapses to half-open
        once the cooldown has elapsed)."""
        if (
            self._state == "open"
            and now >= self._opened_at + self.cooldown_s
        ):
            return "half-open"
        return self._state

    def allows(self, now: float) -> bool:
        """Whether a dispatch may depart right now.

        Closed: always.  Open: never.  Half-open: only while no probe
        is in flight (exactly one batch tests the waters).
        """
        state = self.state(now)
        if state == "closed":
            return True
        if state == "half-open":
            return not self._probe_inflight
        return False

    def on_dispatch(self, now: float) -> Optional[str]:
        """Note a departing batch; marks the half-open probe."""
        if self.state(now) == "half-open":
            transitioned = self._state == "open"
            self._state = "half-open"
            self._probe_inflight = True
            if transitioned:
                return "breaker_half_open"
        return None

    def on_success(self, now: float) -> Optional[str]:
        """A batch completed cleanly; closes a half-open breaker."""
        self._probe_inflight = False
        if self._state == "half-open":
            self._state = "closed"
            self.failures = 0
            self.closes += 1
            return "breaker_close"
        self.failures = 0
        return None

    def on_failure(self, now: float) -> Optional[str]:
        """A batch failed; may trip the breaker (re-)open."""
        self._probe_inflight = False
        if self._state == "half-open":
            # The probe itself failed: straight back to open, with a
            # fresh cooldown.
            self._state = "open"
            self._opened_at = now
            self.opens += 1
            return "breaker_open"
        self.failures += 1
        if self._state == "closed" and self.failures >= self.failure_threshold:
            self._state = "open"
            self._opened_at = now
            self.opens += 1
            return "breaker_open"
        return None
