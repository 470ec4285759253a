"""Temporal statistics features ``x_st`` (Section IV-B).

The PEC concatenates "a vector x_st which contains temporal statistics of
cities (such as the number of visits to a city in the last month or in the
same period of history)".  This module computes that vector for a
(user, candidate city, decision day, role) query, where role is origin or
destination, using *only events strictly before the decision day* so no
label information leaks into features.

Index
-----
Per role the bookings are two sorted ``int64`` arrays of composite keys,
``(user * C + city) * span + (day - first)`` and ``city * span +
(day - first)`` (``C`` cities, event days in ``[first, first + span)``):
every (user, city) or city is one contiguous run of keys, sorted by day,
and the events of a run inside a day window ``[low, high)`` are one
``searchsorted`` pair with the window clipped to the run.  A batch of
queries is then a handful of array calls, whatever its size.

The same-period count visits each anniversary ``day - 365 k`` (k >= 1,
the anniversary >= -15) whose +-15-day window can hold an event at all:
those inside ``[first - 15, last + 15]``, at most
``(last - first + 30) // 365 + 1`` of them.  So a query costs the same
for any ``day`` — a day of 10**18 included.
"""

from __future__ import annotations

import itertools

import numpy as np

from .schema import BookingEvent

__all__ = ["TemporalFeatureExtractor", "XST_DIM"]

XST_DIM = 6
_LAST_MONTH_DAYS = 30
_DAYS_PER_YEAR = 365
_SAME_PERIOD_WINDOW = 15  # +- days around the anniversary of the decision day


class TemporalFeatureExtractor:
    """Sorted composite-key arrays per role for array feature queries.

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
        events = np.fromiter(
            itertools.chain.from_iterable(
                (b.user_id, b.origin, b.destination, b.day)
                for bookings in bookings_by_user.values() for b in bookings
            ),
            dtype=np.int64,
        ).reshape(-1, 4)
        users, days = events[:, 0], events[:, 3]
        self._num_users = int(users.max()) + 1 if len(events) else 0
        self._num_cities = int(events[:, 1:3].max()) + 1 if len(events) else 0
        self._first = int(days.min()) if len(events) else 0
        last = int(days.max()) if len(events) else -1
        self._span = last - self._first + 1 if len(events) else 1
        # The anniversaries whose window can hold an event.
        self._anniversaries = (
            max(-_SAME_PERIOD_WINDOW, self._first - _SAME_PERIOD_WINDOW),
            last + _SAME_PERIOD_WINDOW,
        )
        offsets = days - self._first
        self._user_keys: dict[str, np.ndarray] = {}
        self._city_keys: dict[str, np.ndarray] = {}
        for role, cities in (("o", events[:, 1]), ("d", events[:, 2])):
            self._user_keys[role] = np.sort(
                (users * self._num_cities + cities) * self._span + offsets
            )
            self._city_keys[role] = np.sort(cities * self._span + offsets)

    def x_st(self, users: np.ndarray, cities: np.ndarray, days: np.ndarray,
             role: str) -> np.ndarray:
        """The x_st rows of aligned ``(n,)`` queries: ``(n, XST_DIM)``;
        ``role`` is ``'o'`` or ``'d'``."""
        if role not in ("o", "d"):
            raise ValueError(f"role must be 'o' or 'd', got {role!r}")
        users = np.asarray(users, dtype=np.int64)
        cities = np.asarray(cities, dtype=np.int64)
        days = np.asarray(days, dtype=np.int64)
        user_keys, city_keys = self._user_keys[role], self._city_keys[role]
        known_city = (cities >= 0) & (cities < self._num_cities)
        known = known_city & (users >= 0) & (users < self._num_users)
        # A run's keys start at base; -span is below every key (no run).
        user_base = np.where(
            known, users * self._num_cities + cities, -1) * self._span
        city_base = np.where(known_city, cities, -1) * self._span

        # Window bounds, one column each: the run's start (a placeholder
        # here), the day, a month back, then the anniversary windows.
        low, high = self._anniversaries
        first_k = np.maximum(1, -((high - days) // _DAYS_PER_YEAR))
        last_k = (days - low) // _DAYS_PER_YEAR
        ks = first_k[:, None] + np.arange((high - low) // _DAYS_PER_YEAR + 1)
        centre = days[:, None] - _DAYS_PER_YEAR * ks
        start = centre - _SAME_PERIOD_WINDOW
        stop = np.where(ks <= last_k[:, None],
                        centre + _SAME_PERIOD_WINDOW + 1, start)
        bounds = np.concatenate(
            [days[:, None], days[:, None], days[:, None] - _LAST_MONTH_DAYS,
             start, stop], axis=1,
        )
        # Clipped to the runs, a window's events are a searchsorted pair.
        bounds = np.minimum(np.maximum(bounds - self._first, 0), self._span)
        bounds[:, 0] = 0
        user = user_keys.searchsorted(user_base[:, None] + bounds)
        city = city_keys.searchsorted(city_base[:, None] + bounds)
        periods = ks.shape[1]
        anniversaries = slice(3, 3 + periods), slice(3 + periods, None)

        # Only the past is visible: the user's events before the day.
        visible = user[:, 1] - user[:, 0]
        norm = max(len(city_keys), 1)
        out = np.empty((days.shape[0], XST_DIM), dtype=np.float64)
        out[:, 0] = np.log1p(user[:, 1] - user[:, 2])
        out[:, 1] = np.log1p((user[:, anniversaries[1]]
                              - user[:, anniversaries[0]]).sum(axis=1))
        out[:, 2] = np.log1p(visible)  # every visible user event
        out[:, 3] = (city[:, 1] - city[:, 2]) / norm * 100.0
        out[:, 4] = (city[:, anniversaries[1]]
                     - city[:, anniversaries[0]]).sum(axis=1) / norm * 100.0
        out[:, 5] = 0.0
        seen = visible > 0
        last_day = (user_keys[user[seen, 1] - 1] - user_base[seen]
                    + self._first)
        out[seen, 5] = 1.0 / (1.0 + (days[seen] - last_day))
        return out

    def features(self, user_id: int, city: int, day: int, role: str) -> np.ndarray:
        """The x_st vector of one query (the one-row case of :meth:`x_st`)."""
        return self.x_st(np.array([user_id]), np.array([city]),
                         np.array([day]), role)[0]
