"""Fallbacks: degrade, don't error.

:func:`run_with_fallback` runs one named stage's primary behind its
guards (deadline, circuit breaker, a bounded number of attempts) and, on
any guarded failure, runs the stage's degraded alternative instead
(Fliggy's production rankers fall back to popularity scoring; so do we),
returning a :class:`FallbackEvent` that says *why* — the serving
response carries these events so callers and tests can see exactly what
degraded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..obs.registry import get_registry
from .breaker import CircuitBreaker
from .deadline import Deadline, DeadlineExceeded
from .errors import RetriesExhausted

__all__ = ["FallbackEvent", "record_fallback", "run_with_fallback"]


@dataclass(frozen=True)
class FallbackEvent:
    """One degradation decision: which stage fell back, and why."""

    site: str
    reason: str    # "cold_start", "empty", "deadline", "breaker_open",
                   # "error:<ExceptionName>"

    def __str__(self) -> str:
        return f"{self.site}:{self.reason}"


def record_fallback(site: str, reason: str) -> FallbackEvent:
    """Count a degradation (aggregate + per-site) and return its event."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("resilience.fallbacks").inc()
        registry.counter(
            "resilience.fallbacks", labels={"site": site, "reason": reason}
        ).inc()
    return FallbackEvent(site=site, reason=reason)


def run_with_fallback(
    *,
    site: str,
    primary: Callable,
    fallback: Callable,
    attempts: int = 1,
    breaker: CircuitBreaker | None = None,
    deadline: Deadline | None = None,
):
    """Run ``primary()`` under the guards; degrade to ``fallback()``.

    Returns ``(value, event)`` where ``event`` is ``None`` when the
    primary succeeded and a :class:`FallbackEvent` naming the reason when
    the fallback produced the value instead.  The breaker records one
    outcome per *request* (after every attempt), so its failure window
    measures observed availability, not raw attempt count.
    """
    if deadline is not None and deadline.expired:
        event = record_fallback(site, "deadline")
        return fallback(), event
    if breaker is not None and not breaker.allow():
        event = record_fallback(site, "breaker_open")
        return fallback(), event
    try:
        value = _attempt(site, primary, attempts, deadline)
    except (RetriesExhausted, DeadlineExceeded) as exc:
        if breaker is not None:
            breaker.record_failure()
        cause = exc.last if isinstance(exc, RetriesExhausted) else exc
        if isinstance(cause, DeadlineExceeded):
            reason = "deadline"
        else:
            reason = f"error:{type(cause).__name__}"
        event = record_fallback(site, reason)
        return fallback(), event
    if breaker is not None:
        breaker.record_success()
    return value, None


def _attempt(
    site: str, primary: Callable, attempts: int, deadline: Deadline | None
):
    """``primary()``, tried up to ``attempts`` times back to back (a
    request's budget is milliseconds, so no backoff is slept).

    Raises :class:`DeadlineExceeded` when the budget ran out before a
    retry, and :class:`RetriesExhausted` (carrying the last error) when
    every attempt failed.  With more than one attempt, each failed one
    counts ``resilience.retries`` and a success after a failure counts
    ``resilience.retry_successes``.
    """
    registry = get_registry()
    last: Exception | None = None
    for attempt in range(1, attempts + 1):
        if attempt > 1 and deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"deadline expired before attempt {attempt} of {site!r}"
            ) from last
        try:
            value = primary()
        except Exception as exc:
            last = exc
            if attempts > 1 and registry.enabled:
                registry.counter(
                    "resilience.retries", labels={"site": site}
                ).inc()
            continue
        if attempt > 1 and registry.enabled:
            registry.counter(
                "resilience.retry_successes", labels={"site": site}
            ).inc()
        return value
    raise RetriesExhausted(site, attempts, last)
