"""Seeded fault injection — the chaos harness.

Instrumented sites (``rank.score``, ``recall.candidates``,
``features.history``, ``online.publish.*``, …) call :func:`inject` with
their site name; the *active* :class:`FaultInjector` then
deterministically decides — from one seeded RNG stream — whether to
raise an :class:`InjectedFault`, add latency, or do nothing.  The
default injector is a no-op (same get/set/use pattern as the metrics
registry), so production code paths pay only a function call when chaos
is off.

>>> from repro.resilience import FaultInjector, FaultSpec, use_fault_injector
>>> chaos = FaultInjector(seed=0)
>>> chaos.add("rank.score", FaultSpec(error_rate=1.0))
>>> with use_fault_injector(chaos):
...     pass  # every rank.score site call now raises InjectedFault
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..obs.registry import get_registry
from .errors import InjectedFault

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULT_INJECTOR",
    "get_fault_injector",
    "set_fault_injector",
    "use_fault_injector",
    "inject",
]


@dataclass(frozen=True)
class FaultSpec:
    """What chaos to inflict on one site.

    ``error_rate``/``latency_rate`` are independent per-call
    probabilities; ``after_calls`` arms the spec only once the site has
    been hit that many times (model a dependency that degrades mid-run),
    and ``max_faults`` caps the number of raised errors (model a
    transient outage that heals).

    ``exit_code`` escalates a fired fault from an exception to a
    *process death*: instead of raising :class:`InjectedFault` the
    injector calls ``os._exit(exit_code)`` — no cleanup, no flushing,
    exactly what a segfault or OOM-kill looks like from outside.  This
    is the process-level chaos the cluster supervisor is drilled
    against (``FaultSpec(error_rate=1.0, after_calls=N, exit_code=139)``
    = "crash on the Nth request").
    """

    error_rate: float = 0.0
    latency_ms: float = 0.0
    latency_rate: float = 0.0
    after_calls: int = 0
    max_faults: int | None = None
    exit_code: int | None = None

    def __post_init__(self):
        for name in ("error_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {self.latency_ms}")
        if self.after_calls < 0:
            raise ValueError(f"after_calls must be >= 0, got {self.after_calls}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(f"max_faults must be >= 0, got {self.max_faults}")
        if self.exit_code is not None and not 0 <= self.exit_code <= 255:
            raise ValueError(
                f"exit_code must be in [0, 255], got {self.exit_code}"
            )


class FaultInjector:
    """Seeded chaos: per-site error/latency injection with counters.

    Thread-safe: the overload scenario injects latency at ``rank.score``
    from many serving threads at once, so the call/fault counters and the
    shared RNG stream mutate under a lock (sleeps happen outside it).
    """

    enabled = True

    def __init__(self, seed: int = 0, sleep=time.sleep):
        self._rng = np.random.default_rng(seed)
        self._specs: dict[str, FaultSpec] = {}
        self._calls: dict[str, int] = {}
        self._faults: dict[str, int] = {}
        self._sleep = sleep
        self._lock = threading.Lock()
        self.seed = seed

    # ------------------------------------------------------------------
    def add(self, site: str, spec: FaultSpec | None = None, **kwargs) -> "FaultInjector":
        """Register (or replace) the fault spec for ``site``; chainable."""
        if spec is None:
            spec = FaultSpec(**kwargs)
        elif kwargs:
            raise TypeError("pass either a FaultSpec or keyword fields, not both")
        self._specs[site] = spec
        return self

    def remove(self, site: str) -> None:
        self._specs.pop(site, None)

    def clear(self) -> None:
        self._specs.clear()

    @property
    def sites(self) -> list[str]:
        return sorted(self._specs)

    def calls(self, site: str) -> int:
        return self._calls.get(site, 0)

    def faults(self, site: str) -> int:
        return self._faults.get(site, 0)

    @property
    def total_faults(self) -> int:
        return sum(self._faults.values())

    # ------------------------------------------------------------------
    def inject(self, site: str) -> None:
        """Called by instrumented sites: maybe add latency, maybe raise."""
        spec = self._specs.get(site)
        if spec is None:
            return
        add_latency = False
        fault_count = 0
        with self._lock:
            seen = self._calls.get(site, 0)
            self._calls[site] = seen + 1
            if seen < spec.after_calls:
                return
            if (
                spec.latency_rate > 0.0
                and spec.latency_ms > 0.0
                and self._rng.random() < spec.latency_rate
            ):
                add_latency = True
            if spec.error_rate > 0.0 and self._rng.random() < spec.error_rate:
                raised = self._faults.get(site, 0)
                if spec.max_faults is None or raised < spec.max_faults:
                    self._faults[site] = raised + 1
                    fault_count = raised + 1
        if add_latency:
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "chaos.injected_latency", labels={"site": site}
                ).inc()
            if self._sleep is not None:
                self._sleep(spec.latency_ms / 1000.0)
        if fault_count:
            registry = get_registry()
            if spec.exit_code is not None:
                if registry.enabled:
                    registry.counter(
                        "chaos.injected_exits", labels={"site": site}
                    ).inc()
                os._exit(spec.exit_code)
            if registry.enabled:
                registry.counter(
                    "chaos.injected_errors", labels={"site": site}
                ).inc()
            raise InjectedFault(site, fault_count)


class NullFaultInjector(FaultInjector):
    """Default injector: remembers nothing, raises nothing."""

    enabled = False

    def __init__(self):
        super().__init__(seed=0)

    def add(self, site, spec=None, **kwargs):
        raise RuntimeError(
            "cannot configure faults on the null injector; create a "
            "FaultInjector and activate it with use_fault_injector()"
        )

    def inject(self, site: str) -> None:
        pass


#: Shared do-nothing injector; the process default.
NULL_FAULT_INJECTOR = NullFaultInjector()

_active: FaultInjector = NULL_FAULT_INJECTOR


def get_fault_injector() -> FaultInjector:
    """The injector instrumented sites should consult right now."""
    return _active


def set_fault_injector(injector: FaultInjector | None) -> FaultInjector:
    """Install ``injector`` (``None`` restores the no-op default);
    returns the previously active injector."""
    global _active
    previous = _active
    _active = injector if injector is not None else NULL_FAULT_INJECTOR
    return previous


@contextmanager
def use_fault_injector(injector: FaultInjector | None = None):
    """Scope an injector: activate, yield, restore the previous one."""
    injector = injector if injector is not None else FaultInjector()
    previous = set_fault_injector(injector)
    try:
        yield injector
    finally:
        set_fault_injector(previous)


def inject(site: str) -> None:
    """Module-level shorthand: ``inject('rank.score')`` at a hot site."""
    _active.inject(site)
