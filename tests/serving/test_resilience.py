"""Retry-budget and circuit-breaker state machines."""

import math

import pytest

from repro.serving import BREAKER_STATES, CircuitBreaker, RetryPolicy

#: A request's absolute deadline (due 0.5 s after it arrived at 0 s),
#: and a background request's, as the router passes them.
_DEADLINE_S = 0.5
_UNDEADLINED = math.inf


class TestRetryPolicy:
    def test_validation_names_the_field(self):
        with pytest.raises(ValueError, match="limit"):
            RetryPolicy(limit=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=0.0)
        with pytest.raises(ValueError, match="growth"):
            RetryPolicy(growth=0.5)

    def test_exponential_schedule(self):
        policy = RetryPolicy(limit=3, backoff_s=0.01, growth=2.0)
        delays = [policy.backoff_for(a, 0.0, _UNDEADLINED) for a in (1, 2, 3)]
        assert delays == [0.01, 0.02, 0.04]

    def test_exhausted_budget_returns_none(self):
        policy = RetryPolicy(limit=2, backoff_s=0.01)
        assert policy.backoff_for(3, 0.0, _UNDEADLINED) is None
        assert RetryPolicy(limit=0).backoff_for(1, 0.0, _UNDEADLINED) is None

    def test_backoff_capped_at_half_remaining_slack(self):
        # Deadline at 0.5 s; at now=0.4 the slack is 0.1 s, so even a
        # huge nominal backoff is capped at 0.05 s.
        policy = RetryPolicy(limit=2, backoff_s=10.0)
        delay = policy.backoff_for(1, 0.4, _DEADLINE_S)
        assert delay == pytest.approx(0.05)

    def test_expired_deadline_returns_none(self):
        policy = RetryPolicy(limit=5, backoff_s=0.01)
        assert policy.backoff_for(1, 0.6, _DEADLINE_S) is None

    def test_infinite_deadline_never_capped(self):
        policy = RetryPolicy(limit=1, backoff_s=3.0)
        assert policy.backoff_for(1, 100.0, _UNDEADLINED) == 3.0


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=0.0)
        assert BREAKER_STATES == ("closed", "open", "half-open")

    def test_opens_at_threshold_not_before(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=1.0)
        assert breaker.on_failure(0.0) is None
        assert breaker.on_failure(0.1) is None
        assert breaker.state(0.1) == "closed"
        assert breaker.allows(0.1)
        assert breaker.on_failure(0.2) == "breaker_open"
        assert breaker.state(0.2) == "open"
        assert not breaker.allows(0.2)
        assert breaker.opens == 1

    def test_success_resets_consecutive_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1.0)
        breaker.on_failure(0.0)
        breaker.on_success(0.1)
        assert breaker.on_failure(0.2) is None  # streak restarted
        assert breaker.state(0.2) == "closed"

    def test_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        breaker.on_failure(0.0)
        assert breaker.state(0.99) == "open"
        assert not breaker.allows(0.99)
        assert breaker.state(1.0) == "half-open"
        assert breaker.allows(1.0)

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        breaker.on_failure(0.0)
        assert breaker.on_dispatch(1.5) == "breaker_half_open"
        # Probe in flight: no second dispatch until it resolves.
        assert not breaker.allows(1.6)
        assert breaker.on_dispatch(1.6) is None

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        breaker.on_failure(0.0)
        breaker.on_dispatch(1.5)
        assert breaker.on_success(1.7) == "breaker_close"
        assert breaker.state(1.7) == "closed"
        assert breaker.allows(1.7)
        assert breaker.closes == 1
        assert breaker.failures == 0

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        breaker.on_failure(0.0)
        breaker.on_dispatch(1.5)
        assert breaker.on_failure(1.7) == "breaker_open"
        assert breaker.opens == 2
        # The cooldown restarts from the probe failure, not the
        # original trip: still open at 2.5, half-open at 2.7.
        assert breaker.state(2.5) == "open"
        assert not breaker.allows(2.5)
        assert breaker.state(2.7) == "half-open"

    def test_closed_dispatch_is_silent(self):
        breaker = CircuitBreaker()
        assert breaker.on_dispatch(0.0) is None
        assert breaker.on_success(0.1) is None
