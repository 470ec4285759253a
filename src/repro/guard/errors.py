"""Typed admission failures raised by the overload-protection layer.

An :class:`AdmissionRejected` means the system refused to *start* the
work — shed before any model cost was paid, which is what separates it
from the resilience layer's failures (those happen after work began and
feed the fallback ladder).  Serving converts the rejection into a
degraded popularity-ranked response; it must never escape to a caller as
a raw exception.

:func:`reject` is the counted constructor (the mirror of
:func:`repro.resilience.record_fallback`): every rejection increments
``guard.shed`` — aggregate and labelled by site/reason/priority — before
the exception is raised, so shedding is visible in the metrics registry
the moment it starts.
"""

from __future__ import annotations

from ..obs.registry import get_registry

__all__ = ["GuardError", "AdmissionRejected", "reject"]


class GuardError(RuntimeError):
    """Base class for failures raised by the overload-protection layer."""


class AdmissionRejected(GuardError):
    """The request was refused before any work started.

    ``reason`` is one of ``"draining"``, ``"not_ready"``,
    ``"queue_full"``, ``"queue_timeout"``, or ``"shed:<priority>"``;
    ``priority`` carries the request's
    :class:`~repro.guard.shedder.Priority` when known.
    """

    def __init__(self, site: str, reason: str, priority=None):
        detail = f" ({priority.name.lower()} priority)" if priority is not None else ""
        super().__init__(f"{site!r} rejected admission: {reason}{detail}")
        self.site = site
        self.reason = reason
        self.priority = priority


def reject(site: str, reason: str, priority=None) -> AdmissionRejected:
    """Count a shed decision and return its typed exception (to raise)."""
    registry = get_registry()
    if registry.enabled:
        labels = {"site": site, "reason": reason}
        if priority is not None:
            labels["priority"] = priority.name.lower()
        registry.counter("guard.shed").inc()
        registry.counter("guard.shed", labels=labels).inc()
    return AdmissionRejected(site, reason, priority)
