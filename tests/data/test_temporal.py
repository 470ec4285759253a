"""Temporal statistics x_st: visibility, windows, same-period counts."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.schema import BookingEvent
from repro.data.temporal import XST_DIM, TemporalFeatureExtractor


def _booking(user, o, d, day):
    return BookingEvent(user_id=user, origin=o, destination=d, day=day,
                        price=100.0)


@pytest.fixture()
def extractor():
    bookings = {
        0: [
            _booking(0, 1, 2, 10),
            _booking(0, 1, 3, 40),
            _booking(0, 1, 2, 370),   # ~1 year after day 10
            _booking(0, 5, 2, 395),
        ],
        1: [
            _booking(1, 1, 2, 50),
        ],
    }
    return TemporalFeatureExtractor(bookings)


class TestVisibility:
    def test_future_events_invisible(self, extractor):
        # At day 10 nothing has happened yet for user 0 / city 2 as D.
        features = extractor.features(0, 2, 10, "d")
        np.testing.assert_allclose(features, np.zeros(XST_DIM))

    def test_role_validation(self, extractor):
        with pytest.raises(ValueError):
            extractor.features(0, 2, 100, "x")

    def test_unknown_user_gives_user_zeros(self, extractor):
        # Day 60: user 1's day-50 trip to city 2 is in the global window.
        features = extractor.features(42, 2, 60, "d")
        assert features[0] == 0  # last month user count
        assert features[2] == 0  # total user count
        assert features[3] > 0   # global stats still visible


class TestCounts:
    def test_last_month_window(self, extractor):
        # Day 41: booking at day 40 is within the last 30 days; day 10 not.
        features = extractor.features(0, 1, 41, "o")
        assert features[0] == pytest.approx(np.log1p(1))

    def test_total_user_visits(self, extractor):
        features = extractor.features(0, 1, 400, "o")
        assert features[2] == pytest.approx(np.log1p(3))

    def test_same_period_of_history(self, extractor):
        # Day 372: the anniversary window covers day ~7 (372-365) so the
        # day-10 trip to city 2 counts as same-period.
        features = extractor.features(0, 2, 372, "d")
        assert features[1] == pytest.approx(np.log1p(1))

    def test_same_period_excludes_far_days(self, extractor):
        # Day 430 -> anniversary 65; day-10 and day-40 both outside +-15.
        features = extractor.features(0, 2, 430, "d")
        assert features[1] == 0.0

    def test_recency_decay(self, extractor):
        day_after = extractor.features(0, 2, 396, "d")[5]
        month_after = extractor.features(0, 2, 425, "d")[5]
        assert day_after > month_after > 0

    def test_roles_tracked_separately(self, extractor):
        # City 2 is a destination for user 0, never an origin.
        assert extractor.features(0, 2, 400, "o")[2] == 0.0
        assert extractor.features(0, 2, 400, "d")[2] > 0.0

    def test_global_counts_span_users(self, extractor):
        # Origin city 1 was used by user 0 (twice before day 60) and user 1.
        features = extractor.features(1, 1, 60, "o")
        assert features[3] > 0

    def test_batch_matches_single(self, extractor):
        users = np.array([0, 0])
        cities = np.array([2, 1])
        days = np.array([400, 400])
        batch = extractor.features_batch(users, cities, days, "d")
        np.testing.assert_allclose(
            batch[0], extractor.features(0, 2, 400, "d")
        )
        np.testing.assert_allclose(
            batch[1], extractor.features(0, 1, 400, "d")
        )


class _SlicingReference(TemporalFeatureExtractor):
    """``features`` as it was before it stopped copying: slice the visible
    prefix of each day list, then count inside the copy."""

    def features(self, user_id, city, day, role):
        def count(days, low, high):
            return bisect.bisect_left(days, high) - bisect.bisect_left(days, low)

        def same_period(days):
            total, anniversary = 0, day - 365
            while anniversary >= -15:
                total += count(days, anniversary - 15, anniversary + 16)
                anniversary -= 365
            return total

        user_days = self._user_days.get((user_id, city, role), [])
        global_days = self._global_days.get((city, role), [])
        visible = user_days[:bisect.bisect_left(user_days, day)]
        visible_global = global_days[:bisect.bisect_left(global_days, day)]
        norm = max(self._global_totals[role], 1)
        return np.array([
            np.log1p(count(visible, day - 30, day)),
            np.log1p(same_period(visible)),
            np.log1p(len(visible)),
            count(visible_global, day - 30, day) / norm * 100.0,
            same_period(visible_global) / norm * 100.0,
            1.0 / (1.0 + (day - visible[-1])) if visible else 0.0,
        ])


class TestNoCopyAgreesWithSlicing:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_queries(self, seed):
        rng = np.random.default_rng(seed)
        bookings = {
            user: [
                _booking(user, int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                         int(day))
                for day in rng.integers(100, 1200, rng.integers(0, 12))
            ]
            for user in range(3)
        }
        new = TemporalFeatureExtractor(bookings)
        old = _SlicingReference(bookings)
        # Before the first event, on event days, between, after the last.
        days = [0, 99, 100, 1199, 1200, 5000, *rng.integers(0, 1600, 10)]
        for day in days:
            query = (int(rng.integers(0, 4)), int(rng.integers(0, 5)),
                     int(day), "od"[int(rng.integers(0, 2))])
            np.testing.assert_array_equal(
                new.features(*query), old.features(*query)
            )
