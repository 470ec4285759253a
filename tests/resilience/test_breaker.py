"""CircuitBreaker state machine: closed → open → half-open → closed."""

import pytest

from repro.obs import use_registry
from repro.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from tests.resilience.test_deadline import FakeClock


def make_breaker(clock=None, **kwargs):
    kwargs.setdefault("window", 10)
    kwargs.setdefault("failure_threshold", 0.5)
    kwargs.setdefault("min_calls", 4)
    kwargs.setdefault("recovery_s", 30.0)
    return CircuitBreaker("rank", clock=clock or FakeClock(), **kwargs)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_at_threshold_over_window(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED  # below min_calls
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_successes_keep_it_closed(self):
        breaker = make_breaker()
        for _ in range(20):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.failure_rate() < 0.5

    def test_half_open_after_cooldown_then_closes_on_success(self):
        clock = FakeClock()
        breaker = make_breaker(clock=clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 31.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()          # the single probe
        assert not breaker.allow()      # no second probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate() == 0.0

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = make_breaker(clock=clock)
        for _ in range(4):
            breaker.record_failure()
        clock.now += 31.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", window=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", min_calls=0)


class TestObservability:
    def test_obs_counters_and_gauge(self):
        with use_registry() as registry:
            breaker = make_breaker(min_calls=2)
            breaker.record_failure()
            breaker.record_failure()
        assert registry.counter("resilience.breaker_open").value == 1
        assert registry.counter(
            "resilience.breaker_open", labels={"site": "rank"}
        ).value == 1
        assert registry.gauge(
            "resilience.breaker_state", labels={"site": "rank"}
        ).value == 2.0
