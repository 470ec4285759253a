"""Temporal statistics features ``x_st`` (Section IV-B).

The PEC concatenates "a vector x_st which contains temporal statistics of
cities (such as the number of visits to a city in the last month or in the
same period of history)".  This module computes that vector for a
(user, candidate city, decision day, role) query, where role is origin or
destination, using *only events strictly before the decision day* so no
label information leaks into features.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import numpy as np

from .schema import BookingEvent

__all__ = ["TemporalFeatureExtractor", "XST_DIM"]

XST_DIM = 6
_LAST_MONTH_DAYS = 30
_DAYS_PER_YEAR = 365
_SAME_PERIOD_WINDOW = 15  # +- days around the anniversary of the decision day


class TemporalFeatureExtractor:
    """Precomputed day-sorted visit indexes for O(log n) feature queries.

    Features (per role in {origin, destination}):

    0. user's visits to the city in the last month (log1p)
    1. user's visits to the city in the same period of previous years (log1p)
       — the signal that catches "flies to Sanya every October"
    2. user's all-time visits to the city (log1p)
    3. global visits to the city in the last month, normalised
    4. global visits to the city in the same period of history, normalised
    5. recency: 1 / (1 + days since the user's last visit to the city)
    """

    def __init__(self, bookings_by_user: dict[int, list[BookingEvent]]):
        # (user, city, role) -> sorted day list; (city, role) -> sorted days.
        self._user_days: dict[tuple[int, int, str], list[int]] = defaultdict(list)
        self._global_days: dict[tuple[int, str], list[int]] = defaultdict(list)
        self._global_totals: dict[str, int] = defaultdict(int)
        for user_id, bookings in bookings_by_user.items():
            for booking in bookings:
                for role, city in (("o", booking.origin), ("d", booking.destination)):
                    self._user_days[(user_id, city, role)].append(booking.day)
                    self._global_days[(city, role)].append(booking.day)
                    self._global_totals[role] += 1
        for days in self._user_days.values():
            days.sort()
        for days in self._global_days.values():
            days.sort()

    @staticmethod
    def _count_window(days: list[int], low: int, high: int, visible: int) -> int:
        """Count events with day in [low, high) among the first ``visible``."""
        return (bisect.bisect_left(days, high, 0, visible)
                - bisect.bisect_left(days, low, 0, visible))

    def _count_same_period(self, days: list[int], day: int, visible: int) -> int:
        """Events near the anniversary of ``day`` in previous years."""
        total = 0
        anniversary = day - _DAYS_PER_YEAR
        while anniversary >= -_SAME_PERIOD_WINDOW:
            total += self._count_window(
                days, anniversary - _SAME_PERIOD_WINDOW,
                anniversary + _SAME_PERIOD_WINDOW + 1, visible,
            )
            anniversary -= _DAYS_PER_YEAR
        return total

    def features(self, user_id: int, city: int, day: int, role: str) -> np.ndarray:
        """The x_st vector; ``role`` is ``'o'`` or ``'d'``."""
        if role not in ("o", "d"):
            raise ValueError(f"role must be 'o' or 'd', got {role!r}")
        user_days = self._user_days.get((user_id, city, role), [])
        global_days = self._global_days.get((city, role), [])
        # Only the past is visible: the events before each cutoff.
        cutoff = bisect.bisect_left(user_days, day)
        last_month_user = self._count_window(
            user_days, day - _LAST_MONTH_DAYS, day, cutoff
        )
        same_period_user = self._count_same_period(user_days, day, cutoff)

        global_cutoff = bisect.bisect_left(global_days, day)
        last_month_global = self._count_window(
            global_days, day - _LAST_MONTH_DAYS, day, global_cutoff
        )
        same_period_global = self._count_same_period(
            global_days, day, global_cutoff
        )
        norm = max(self._global_totals[role], 1)

        recency = 0.0
        if cutoff:
            recency = 1.0 / (1.0 + (day - user_days[cutoff - 1]))

        return np.array(
            [
                np.log1p(last_month_user),
                np.log1p(same_period_user),
                np.log1p(cutoff),  # every visible user event
                last_month_global / norm * 100.0,
                same_period_global / norm * 100.0,
                recency,
            ],
            dtype=np.float64,
        )

    def features_batch(
        self,
        user_ids: np.ndarray,
        cities: np.ndarray,
        days: np.ndarray,
        role: str,
    ) -> np.ndarray:
        """Vector ``features`` for aligned arrays; returns ``(n, XST_DIM)``."""
        return np.stack(
            [
                self.features(int(u), int(c), int(t), role)
                for u, c, t in zip(user_ids, cities, days)
            ]
        )
