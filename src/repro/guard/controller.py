"""The admission controller: one front door composing every guard.

:meth:`AdmissionController.admit` runs the full admission sequence for a
request — lifecycle gate (draining servers refuse), priority shed check
against current occupancy pressure, then a bounded-queue concurrency
slot — and returns a :class:`Permit` whose release feeds the observed
latency back into the AIMD limit.  Any step that refuses raises a typed
:class:`~repro.guard.errors.AdmissionRejected` *before any model work
has started*; the serving layer converts it into a degraded
popularity-ranked response.

Everything is observable: ``guard.admitted`` / ``guard.shed`` counters
(labelled by priority and reason), ``guard.queue_depth`` /
``guard.in_flight`` / ``guard.limit`` gauges, and the
``guard.queue_wait_ms`` histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..obs.registry import get_registry
from ..resilience.deadline import Deadline
from .errors import AdmissionRejected, reject
from .lifecycle import ServerLifecycle
from .limiter import AdaptiveLimitConfig, ConcurrencyLimiter
from .shedder import LoadShedder, Priority, ShedPolicy

__all__ = ["GuardConfig", "Permit", "AdmissionController"]


@dataclass(frozen=True)
class GuardConfig:
    """Overload-protection knobs for one serving process.

    ``max_concurrent`` requests run at once (the AIMD start point when
    ``adaptive`` is set); up to ``max_queue`` more wait at most
    ``queue_timeout_ms`` for a slot.  ``shed`` sets the per-priority
    pressure thresholds.
    """

    max_concurrent: int = 8
    max_queue: int = 16
    queue_timeout_ms: float = 50.0
    adaptive: AdaptiveLimitConfig | None = None
    shed: ShedPolicy = field(default_factory=ShedPolicy)
    site: str = "serving.admission"

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.queue_timeout_ms < 0:
            raise ValueError(
                f"queue_timeout_ms must be >= 0, got {self.queue_timeout_ms}"
            )


class Permit:
    """One admitted request; releasing it frees the slot and feeds AIMD."""

    __slots__ = ("_controller", "priority", "_start_s", "_released")

    def __init__(self, controller: "AdmissionController", priority: Priority,
                 start_s: float):
        self._controller = controller
        self.priority = priority
        self._start_s = start_s
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self)

    def __enter__(self) -> "Permit":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Admission sequence: lifecycle -> shed -> slot."""

    def __init__(
        self,
        config: GuardConfig | None = None,
        lifecycle: ServerLifecycle | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or GuardConfig()
        self._clock = clock
        self.lifecycle = lifecycle or ServerLifecycle()
        if self.lifecycle.state == "starting":
            self.lifecycle.mark_ready()
        self.limiter = ConcurrencyLimiter(
            limit=self.config.max_concurrent,
            max_queue=self.config.max_queue,
            adaptive=self.config.adaptive,
            site=self.config.site,
            clock=clock,
        )
        self.shedder = LoadShedder(self.config.shed, site=self.config.site)

    # ------------------------------------------------------------------
    def admit(
        self,
        priority: Priority = Priority.INTERACTIVE,
        deadline: Deadline | None = None,
    ) -> Permit:
        """Admit one request or raise :class:`AdmissionRejected`.

        The returned :class:`Permit` is a context manager; release it
        when the request finishes (success or failure) so the slot frees
        and the observed latency drives the adaptive limit.
        """
        if not self.lifecycle.admitting:
            state = self.lifecycle.state
            reason = "draining" if state in ("draining", "drained") \
                else "not_ready"
            raise reject(self.config.site, reason, priority)
        self.shedder.check(priority, self.limiter.pressure())
        timeout_s = self.config.queue_timeout_ms / 1000.0
        if deadline is not None:
            timeout_s = min(timeout_s, deadline.remaining_ms() / 1000.0)
        self.limiter.acquire(timeout_s, priority=priority)
        try:
            # Atomic with the drain decision: a drain that began while we
            # queued for a slot must still refuse us.
            self.lifecycle.request_started(priority)
        except AdmissionRejected:
            self.limiter.release()
            raise
        registry = get_registry()
        if registry.enabled:
            registry.counter("guard.admitted").inc()
            registry.counter(
                "guard.admitted",
                labels={"priority": priority.name.lower()},
            ).inc()
        return Permit(self, priority, self._clock())

    def _release(self, permit: Permit) -> None:
        latency_ms = (self._clock() - permit._start_s) * 1000.0
        self.limiter.release(latency_ms)
        self.lifecycle.request_finished()

    # ------------------------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop admitting, finish in-flight; see
        :meth:`ServerLifecycle.drain`."""
        return self.lifecycle.drain(timeout_s)

    def pressure(self) -> float:
        return self.limiter.pressure()
