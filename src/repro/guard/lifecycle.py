"""Server lifecycle: health, readiness, and graceful drain.

A serving process moves ``STARTING -> READY -> DRAINING -> DRAINED``.
Readiness gates admission (a load balancer would pull a non-ready
replica); :meth:`ServerLifecycle.drain` is the graceful-shutdown story —
stop admitting, wait for every in-flight request to complete, and only
then report drained.  In-flight accounting is exact:
``request_started`` refuses new work atomically once draining begins, so
there is no window where a request slips in after the drain decision.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..obs.registry import get_registry
from .errors import reject

__all__ = ["STARTING", "READY", "DRAINING", "DRAINED", "ServerLifecycle"]

STARTING = "starting"
READY = "ready"
DRAINING = "draining"
DRAINED = "drained"


class ServerLifecycle:
    """Tracks serving state and in-flight requests; owns graceful drain."""

    def __init__(self, site: str = "serving.lifecycle",
                 clock: Callable[[], float] = time.monotonic):
        self.site = site
        self._clock = clock
        self._started_s = clock()
        self._cond = threading.Condition()
        self._state = STARTING
        self._in_flight = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def ready(self) -> bool:
        """Readiness: should a load balancer route traffic here?"""
        return self._state == READY

    @property
    def admitting(self) -> bool:
        return self._state == READY

    def health(self) -> dict:
        """The health-endpoint payload: state, readiness, and load."""
        with self._cond:
            return {
                "state": self._state,
                "ready": self._state == READY,
                "in_flight": self._in_flight,
                "uptime_s": round(self._clock() - self._started_s, 3),
            }

    # ------------------------------------------------------------------
    def mark_ready(self) -> None:
        with self._cond:
            if self._state in (DRAINING, DRAINED):
                raise RuntimeError(f"cannot mark a {self._state} server ready")
            self._state = READY

    # ------------------------------------------------------------------
    def request_started(self, priority=None) -> None:
        """Count a request in; atomic with the drain decision."""
        with self._cond:
            if self._state != READY:
                reason = "draining" if self._state in (DRAINING, DRAINED) \
                    else "not_ready"
                raise reject(self.site, reason, priority)
            self._in_flight += 1

    def request_finished(self) -> None:
        with self._cond:
            if self._in_flight <= 0:
                raise RuntimeError(
                    "request_finished() without a matching request_started()"
                )
            self._in_flight -= 1
            if self._in_flight == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> bool:
        """Gracefully stop: refuse new work, finish in-flight.

        Returns ``True`` once every in-flight request completed (state
        ``DRAINED``), ``False`` if ``timeout_s`` elapsed first (state
        stays ``DRAINING`` — admission remains closed, and a later
        ``drain()`` call resumes waiting).
        """
        with self._cond:
            if self._state == DRAINED:
                return True
            self._state = DRAINING
            deadline_s = (
                None if timeout_s is None else self._clock() + timeout_s
            )
            while self._in_flight > 0:
                if deadline_s is None:
                    self._cond.wait()
                    continue
                remaining = deadline_s - self._clock()
                if remaining <= 0 or not self._cond.wait(remaining):
                    if self._in_flight == 0:
                        break
                    return False
            self._state = DRAINED
        registry = get_registry()
        if registry.enabled:
            registry.counter("guard.drains").inc()
        return True
