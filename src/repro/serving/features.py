"""Real-Time Features Service (RTFS) — Section VI-B.

In production, TPP queries RTFS with a user id to fetch "basic information,
historical purchase behaviors, and real-time clicking behaviors".  This
module simulates that service: it indexes user histories from the dataset
and accepts streaming click/booking events so the recommendation flow can
be exercised end to end.
"""

from __future__ import annotations

import bisect
from collections import Counter

from ..data.schema import BookingEvent, ClickEvent, UserHistory
from ..obs.registry import get_registry
from ..resilience.chaos import get_fault_injector

__all__ = ["RealTimeFeatureService"]


class RealTimeFeatureService:
    """Per-user behavioural store with point-in-time queries.

    Per-user timelines are **bounded**: an online deployment streams
    events into this store indefinitely (see :mod:`repro.online`), and an
    unbounded per-user list is a slow memory leak that also degrades the
    O(log n) insort.  When a user's timeline exceeds its cap the
    *oldest* events are evicted (counted on ``rtfs.evicted_events``) —
    point-in-time queries over the retained window are unaffected, and
    both the model's history encoder and recall weight recent behaviour
    anyway.
    """

    def __init__(
        self,
        bookings_by_user: dict[int, list[BookingEvent]],
        max_bookings_per_user: int = 512,
        max_clicks_per_user: int = 512,
    ):
        if max_bookings_per_user < 1 or max_clicks_per_user < 1:
            raise ValueError(
                "per-user history caps must be >= 1, got "
                f"{max_bookings_per_user}/{max_clicks_per_user}"
            )
        self.max_bookings_per_user = max_bookings_per_user
        self.max_clicks_per_user = max_clicks_per_user
        self.evicted_bookings = 0
        self.evicted_clicks = 0
        self._bookings: dict[int, list[BookingEvent]] = {
            user: sorted(events, key=lambda e: e.day)
            for user, events in bookings_by_user.items()
        }
        for user in self._bookings:
            self._evict(self._bookings, user, "booking")
        self._clicks: dict[int, list[ClickEvent]] = {
            user: [] for user in bookings_by_user
        }
        # Ingests per user: bumped after a timeline moved, read before it is.
        self._revision: Counter[int] = Counter()

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------
    def _evict(self, timelines: dict, user_id: int, kind: str) -> None:
        """Trim one user's (sorted) timeline to its cap, oldest first."""
        cap = (
            self.max_bookings_per_user if kind == "booking"
            else self.max_clicks_per_user
        )
        timeline = timelines.get(user_id)
        if timeline is None or len(timeline) <= cap:
            return
        excess = len(timeline) - cap
        del timeline[:excess]
        if kind == "booking":
            self.evicted_bookings += excess
        else:
            self.evicted_clicks += excess
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "rtfs.evicted_events", labels={"kind": kind}
            ).inc(excess)

    def record_booking(self, event: BookingEvent) -> None:
        # Streaming events can arrive out of order; an insertion keyed on
        # day keeps the timeline sorted at O(log n) per event instead of
        # re-sorting the whole history on every ingest.
        bisect.insort(
            self._bookings.setdefault(event.user_id, []),
            event,
            key=lambda e: e.day,
        )
        self._evict(self._bookings, event.user_id, "booking")
        self._revision[event.user_id] += 1
        get_registry().counter("rtfs.bookings_ingested").inc()

    def record_click(self, event: ClickEvent) -> None:
        # Same ordering discipline as record_booking: streaming clicks can
        # arrive out of order, and downstream recall iterates the click
        # timeline newest-first as an intent signal
        # (CandidateRecall._assemble_pairs), so an appended late-arriving
        # *old* click would silently outrank fresh intent.  Insort by day
        # keeps the timeline sorted at O(log n) per event.
        bisect.insort(
            self._clicks.setdefault(event.user_id, []),
            event,
            key=lambda e: e.day,
        )
        self._evict(self._clicks, event.user_id, "click")
        self._revision[event.user_id] += 1
        get_registry().counter("rtfs.clicks_ingested").inc()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def known_users(self) -> list[int]:
        return sorted(self._bookings)

    def bookings_before(self, user_id: int, day: int) -> list[BookingEvent]:
        return [b for b in self._bookings.get(user_id, []) if b.day < day]

    def clicks_before(
        self, user_id: int, day: int, window_days: int = 7
    ) -> list[ClickEvent]:
        return [
            c for c in self._clicks.get(user_id, [])
            if day - window_days <= c.day < day
        ]

    def resident_city(self, user_id: int) -> int | None:
        """The user's most frequent historical origin (their home base)."""
        origins = Counter(
            b.origin for b in self._bookings.get(user_id, [])
        )
        if not origins:
            return None
        return origins.most_common(1)[0][0]

    def current_city(self, user_id: int, day: int) -> int | None:
        """Where the user most plausibly is: last destination before ``day``,
        falling back to the resident city."""
        past = self.bookings_before(user_id, day)
        if past:
            return past[-1].destination
        return self.resident_city(user_id)

    def user_history(
        self, user_id: int, day: int, click_window_days: int = 7
    ) -> UserHistory:
        """Assemble the model-facing history snapshot at ``day``.

        Raises :class:`KeyError` for a user with no behavioural data; the
        serving facade catches this and degrades to a cold-start profile.
        """
        get_fault_injector().inject("features.history")
        revision = self._revision.get(user_id, 0)
        past = self.bookings_before(user_id, day)
        current = past[-1].destination if past else self.resident_city(user_id)
        if current is None:
            raise KeyError(f"no behavioural data for user {user_id}")
        history = UserHistory(
            user_id=user_id,
            current_city=current,
            bookings=past,
            clicks=self.clicks_before(user_id, day, click_window_days),
            revision=revision,
        )
        history.day = day
        return history
