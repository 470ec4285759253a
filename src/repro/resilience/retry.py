"""Retries with exponential backoff and deterministic seeded jitter.

``retry_call`` is the single retry primitive: the serving path retries
the rank stage inside its circuit breaker.  The jitter stream is seeded
so a chaos run replays byte-for-byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.registry import get_registry
from .deadline import Deadline
from .errors import DeadlineExceeded, RetriesExhausted

__all__ = ["RetryPolicy", "retry_call"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try and how long to wait between attempts."""

    max_attempts: int = 3
    base_delay_ms: float = 10.0
    multiplier: float = 2.0
    max_delay_ms: float = 1000.0
    jitter: float = 0.5        # delay is scaled by U[1-jitter, 1+jitter]
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ValueError("delays must be >= 0 ms")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_ms(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        raw = min(
            self.max_delay_ms,
            self.base_delay_ms * self.multiplier ** (attempt - 1),
        )
        if self.jitter:
            raw *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return raw


def retry_call(
    fn: Callable,
    *args,
    policy: RetryPolicy | None = None,
    site: str = "call",
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    deadline: Deadline | None = None,
    sleep: Callable[[float], None] | None = time.sleep,
    rng: np.random.Generator | None = None,
    **kwargs,
):
    """Call ``fn(*args, **kwargs)``, retrying transient failures.

    Retries up to ``policy.max_attempts`` total attempts on ``retry_on``
    exceptions, backing off exponentially with seeded jitter.  A
    ``deadline`` bounds the whole loop: an expired budget (or one too
    small for the next backoff) stops retrying immediately.  Pass
    ``sleep=None`` to skip real waiting (simulated clusters, tests).

    Raises :class:`RetriesExhausted` (carrying the last error) when every
    attempt failed, or :class:`DeadlineExceeded` when the budget ran out
    between attempts.
    """
    policy = policy or RetryPolicy()
    if rng is None:
        rng = np.random.default_rng(policy.seed)
    registry = get_registry()
    last: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"deadline expired before attempt {attempt} of {site!r}"
            ) from last
        try:
            result = fn(*args, **kwargs)
        except retry_on as exc:
            last = exc
            if registry.enabled:
                registry.counter(
                    "resilience.retries", labels={"site": site}
                ).inc()
            if attempt == policy.max_attempts:
                break
            delay = policy.delay_ms(attempt, rng)
            if deadline is not None and deadline.remaining_ms() <= delay:
                raise DeadlineExceeded(
                    f"no budget left to back off {delay:.1f}ms for {site!r}"
                ) from exc
            if sleep is not None and delay > 0:
                sleep(delay / 1000.0)
        else:
            if attempt > 1 and registry.enabled:
                registry.counter(
                    "resilience.retry_successes", labels={"site": site}
                ).inc()
            return result
    raise RetriesExhausted(site, policy.max_attempts, last)
