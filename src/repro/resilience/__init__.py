"""``repro.resilience`` — fault tolerance for serving and training.

The paper's production deployment (Section VI-A, Figure 9) runs on a
5-PS/50-worker cluster serving millions of users, where partial failure
is the normal case.  This package provides the primitives that let the
reproduction degrade instead of erroring, mirroring how Fliggy's and
Grab's production rankers fall back to popularity/heuristic scoring:

- :mod:`~repro.resilience.deadline` — :class:`Deadline` request budgets;
- :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker` state
  machine (closed → open → half-open) over a sliding failure window;
- :mod:`~repro.resilience.fallback` — the :func:`run_with_fallback`
  executor (deadline, breaker, a bounded number of back-to-back
  attempts) and the typed :class:`FallbackEvent` it returns;
- :mod:`~repro.resilience.chaos` — seeded :class:`FaultInjector`
  (error/latency injection keyed by site name) behind the same
  get/set/use activation pattern as the metrics registry.

Everything reports through :mod:`repro.obs` (``resilience.fallbacks``,
``resilience.breaker_open``, ``resilience.retries``), so ``python -m
repro obs`` shows degradation live and ``python -m repro chaos``
demonstrates it under seeded faults.
"""

from __future__ import annotations

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .chaos import (
    NULL_FAULT_INJECTOR,
    FaultInjector,
    FaultSpec,
    NullFaultInjector,
    get_fault_injector,
    inject,
    set_fault_injector,
    use_fault_injector,
)
from .deadline import Deadline
from .errors import (
    DeadlineExceeded,
    InjectedFault,
    ResilienceError,
    RetriesExhausted,
)
from .fallback import FallbackEvent, record_fallback, run_with_fallback

__all__ = [
    # errors
    "ResilienceError",
    "DeadlineExceeded",
    "RetriesExhausted",
    "InjectedFault",
    # deadline
    "Deadline",
    # breaker
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    # fallback
    "FallbackEvent",
    "record_fallback",
    "run_with_fallback",
    # chaos
    "FaultSpec",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULT_INJECTOR",
    "get_fault_injector",
    "set_fault_injector",
    "use_fault_injector",
    "inject",
]
