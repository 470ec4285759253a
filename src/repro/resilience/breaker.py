"""Circuit breaker: closed → open → half-open over a sliding window.

The breaker watches the failure rate of a named site over its last
``window`` calls.  While *closed* every call is allowed; once at least
``min_calls`` outcomes are in the window and the failure rate reaches
``failure_threshold`` the breaker trips *open* and refuses calls — the
serving path then skips the failing stage entirely and degrades.  After
``recovery_s`` seconds one *half-open* probe is let through: its
success closes the breaker, its failure re-opens it.

State is exported live: gauge ``resilience.breaker_state{site=}`` (0 =
closed, 1 = half-open, 2 = open) and counter ``resilience.breaker_open``
on every trip.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable

from ..obs.registry import get_registry

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_VALUE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class CircuitBreaker:
    """Failure-rate circuit breaker for one call site."""

    def __init__(
        self,
        site: str,
        window: int = 20,
        failure_threshold: float = 0.5,
        min_calls: int = 5,
        recovery_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {min_calls}")
        self.site = site
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.recovery_s = recovery_s
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._state = CLOSED
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when the cooldown
        has elapsed (reading the state is how time moves the machine)."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_s
        ):
            self._transition(HALF_OPEN)
            self._probing = False
        return self._state

    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open admits one probe."""
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        if self._state == HALF_OPEN:
            # The probe proved the dependency healthy again.
            self._outcomes.clear()
            self._transition(CLOSED)
            return
        self._outcomes.append(False)

    def record_failure(self) -> None:
        if self._state == HALF_OPEN:
            self._trip()
            return
        self._outcomes.append(True)
        if (
            self._state == CLOSED
            and len(self._outcomes) >= self.min_calls
            and self.failure_rate() >= self.failure_threshold
        ):
            self._trip()

    # ------------------------------------------------------------------
    def _trip(self) -> None:
        self.trips += 1
        self._opened_at = self._clock()
        self._transition(OPEN)
        registry = get_registry()
        if registry.enabled:
            registry.counter("resilience.breaker_open").inc()
            registry.counter(
                "resilience.breaker_open", labels={"site": self.site}
            ).inc()

    def _transition(self, state: str) -> None:
        self._state = state
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "resilience.breaker_state", labels={"site": self.site}
            ).set(_STATE_VALUE[state])
