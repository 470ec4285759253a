"""``repro.guard`` — overload protection for the serving path.

PR 2 (:mod:`repro.resilience`) made the stack survive *dependency*
failures and PR 3 (:mod:`repro.perf`) made it fast; this package
protects it from *its own load*.  Under a traffic spike the serving path
must shed work in priority order with bounded queueing — never collapse
into unbounded latency — and a shutting-down server must drain cleanly:

- :mod:`~repro.guard.limiter` — :class:`ConcurrencyLimiter` with a
  *bounded* wait queue and an AIMD-adaptive limit targeting the live
  ``serving.latency_ms`` distribution;
- :mod:`~repro.guard.shedder` — :class:`Priority` classes
  (``INTERACTIVE`` > ``BATCH`` > ``BACKGROUND``) and :class:`LoadShedder`
  thresholds (cheapest traffic sheds first);
- :mod:`~repro.guard.lifecycle` — :class:`ServerLifecycle`
  health/readiness state and graceful :meth:`~ServerLifecycle.drain`;
- :mod:`~repro.guard.controller` — :class:`AdmissionController`, the
  front door composing all of the above into one ``admit()`` call;
- :mod:`~repro.guard.overload` — the seeded 4x-capacity scenario behind
  ``repro chaos --overload`` and the bench overload phase.

A refused request raises a typed :class:`AdmissionRejected` *before any
model work starts*; :class:`~repro.serving.FlightRecommender` converts
it into a degraded popularity-ranked response (shed happens before work
begins; the resilience fallbacks of PR 2 fire after work fails).
Everything reports through :mod:`repro.obs` (``guard.admitted``,
``guard.shed``, ``guard.queue_depth``, ``guard.limit``, ...).
"""

from __future__ import annotations

from .controller import AdmissionController, GuardConfig, Permit
from .errors import AdmissionRejected, GuardError, reject
from .lifecycle import DRAINED, DRAINING, READY, STARTING, ServerLifecycle
from .limiter import AdaptiveLimitConfig, ConcurrencyLimiter
from .overload import OverloadConfig, run_overload
from .shedder import LoadShedder, Priority, ShedPolicy

__all__ = [
    # errors
    "GuardError",
    "AdmissionRejected",
    "reject",
    # concurrency limiting
    "ConcurrencyLimiter",
    "AdaptiveLimitConfig",
    # shedding
    "Priority",
    "ShedPolicy",
    "LoadShedder",
    # lifecycle
    "ServerLifecycle",
    "STARTING",
    "READY",
    "DRAINING",
    "DRAINED",
    # controller
    "AdmissionController",
    "GuardConfig",
    "Permit",
    # overload scenario
    "OverloadConfig",
    "run_overload",
]
