"""Request deadlines.

A :class:`Deadline` is created once at the edge (``FlightRecommender.
recommend``) and carried through the request path; each stage asks
whether the budget is gone before starting work and degrades if it is.
The clock is injectable so tests can drive time deterministically.
"""

from __future__ import annotations

import time
from typing import Callable

from .errors import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """A wall-clock budget in milliseconds.

    >>> deadline = Deadline(budget_ms=50.0)
    >>> deadline.remaining_ms() <= 50.0
    True
    """

    __slots__ = ("budget_ms", "_clock", "_start_s")

    def __init__(
        self,
        budget_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be > 0 ms, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._start_s = clock()

    # ------------------------------------------------------------------
    def elapsed_ms(self) -> float:
        return (self._clock() - self._start_s) * 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds left; clamped at zero."""
        return max(0.0, self.budget_ms - self.elapsed_ms())

    @property
    def expired(self) -> bool:
        return self.elapsed_ms() >= self.budget_ms

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is gone."""
        if self.expired:
            where = f" before {stage}" if stage else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_ms:g}ms exceeded{where} "
                f"(elapsed {self.elapsed_ms():.1f}ms)"
            )
