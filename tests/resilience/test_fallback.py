"""The guarded executor: deadline, breaker, bounded attempts, fallback."""

import pytest

from repro.obs import use_registry
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FallbackEvent,
    record_fallback,
    run_with_fallback,
)
from tests.resilience.test_deadline import FakeClock


def primary_ok():
    return "primary"


def primary_boom():
    raise ConnectionError("down")


def degraded():
    return "degraded"


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError(f"boom {self.calls}")
        return "ok"


def run(primary, **kwargs):
    return run_with_fallback(
        site="rank", primary=primary, fallback=degraded, **kwargs
    )


class TestRecordFallback:
    def test_counts_aggregate_and_per_site(self):
        with use_registry() as registry:
            event = record_fallback("rank", "breaker_open")
        assert event == FallbackEvent(site="rank", reason="breaker_open")
        assert str(event) == "rank:breaker_open"
        assert registry.counter("resilience.fallbacks").value == 1
        assert registry.counter(
            "resilience.fallbacks",
            labels={"site": "rank", "reason": "breaker_open"},
        ).value == 1


class TestRunWithFallback:
    def test_primary_success_no_event(self):
        value, event = run(primary_ok)
        assert value == "primary"
        assert event is None

    def test_failure_degrades_with_reason(self):
        value, event = run(primary_boom)
        assert value == "degraded"
        assert event.reason == "error:ConnectionError"

    def test_retry_reason_names_underlying_error(self):
        value, event = run(primary_boom, attempts=2)
        assert value == "degraded"
        assert event.reason == "error:ConnectionError"

    def test_expired_deadline_short_circuits(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        clock.advance_ms(6)
        calls = []
        value, event = run(lambda: calls.append(1), deadline=deadline)
        assert value == "degraded"
        assert event.reason == "deadline"
        assert not calls  # the primary never ran

    def test_open_breaker_skips_primary(self):
        breaker = CircuitBreaker("rank", min_calls=1,
                                 failure_threshold=0.5, clock=FakeClock())
        breaker.record_failure()
        calls = []
        value, event = run(lambda: calls.append(1), breaker=breaker)
        assert value == "degraded"
        assert event.reason == "breaker_open"
        assert not calls

    def test_breaker_sees_post_retry_outcomes(self):
        breaker = CircuitBreaker("rank", min_calls=2,
                                 failure_threshold=0.5, clock=FakeClock())
        run(primary_boom, attempts=2, breaker=breaker)
        run(primary_boom, attempts=2, breaker=breaker)
        assert breaker.state == "open"
        # Third request skips the primary entirely.
        value, event = run(primary_boom, attempts=2, breaker=breaker)
        assert (value, event.reason) == ("degraded", "breaker_open")


class TestAttempts:
    def test_succeeds_after_transient_failures(self):
        flaky = Flaky(failures=2)
        assert run(flaky, attempts=3) == ("ok", None)
        assert flaky.calls == 3

    def test_every_attempt_failing_degrades(self):
        flaky = Flaky(failures=99)
        value, event = run(flaky, attempts=3)
        assert (value, event.reason) == ("degraded", "error:ConnectionError")
        assert flaky.calls == 3

    @pytest.mark.parametrize("attempts, retries, successes",
                             [(1, 0, 0), (2, 3, 1)])
    def test_counters_recorded(self, attempts, retries, successes):
        # A single attempt is no retry: a failure counts nothing.
        with use_registry() as registry:
            run(Flaky(failures=99), attempts=attempts)
            run(Flaky(failures=1), attempts=attempts)
        assert registry.counter(
            "resilience.retries", labels={"site": "rank"}
        ).value == retries
        assert registry.counter(
            "resilience.retry_successes", labels={"site": "rank"}
        ).value == successes

    def test_expired_deadline_stops_retrying(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        calls = []

        def slow_failure():
            calls.append(1)
            clock.advance_ms(11)
            raise ConnectionError("down")

        value, event = run(slow_failure, attempts=3, deadline=deadline)
        assert (value, event.reason) == ("degraded", "deadline")
        assert len(calls) == 1
