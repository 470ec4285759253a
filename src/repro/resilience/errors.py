"""Exception taxonomy for the resilience layer.

Every failure the layer itself raises derives from :class:`ResilienceError`
so callers can catch degradation-control decisions (deadline overruns,
exhausted attempts, injected chaos) separately from genuine application bugs.
"""

from __future__ import annotations

__all__ = ["ResilienceError", "DeadlineExceeded", "RetriesExhausted",
           "InjectedFault"]


class ResilienceError(RuntimeError):
    """Base class for failures raised by the resilience layer itself."""


class DeadlineExceeded(ResilienceError):
    """The request's time budget ran out before the work finished."""


class RetriesExhausted(ResilienceError):
    """Every attempt failed; carries the last underlying error."""

    def __init__(self, site: str, attempts: int, last: BaseException):
        super().__init__(
            f"{site!r} failed after {attempts} attempt(s): {last!r}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


class InjectedFault(ResilienceError):
    """A fault deliberately raised by the chaos :class:`FaultInjector`."""

    def __init__(self, site: str, count: int):
        super().__init__(f"injected fault #{count} at {site!r}")
        self.site = site
        self.count = count
