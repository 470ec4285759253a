"""Temporal statistics x_st: visibility, windows, same-period counts."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_odnet
from repro.data.schema import BookingEvent
from repro.data.temporal import XST_DIM, TemporalFeatureExtractor
from repro.serving import FlightRecommender

from ..conftest import TINY_MODEL_CONFIG


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
        rows = extractor.x_st(users, cities, days, "d")
        np.testing.assert_array_equal(
            rows[0], extractor.features(0, 2, 400, "d")
        )
        np.testing.assert_array_equal(
            rows[1], extractor.features(0, 1, 400, "d")
        )

    def test_unknown_ids_count_nothing(self, extractor):
        rows = extractor.x_st(np.array([-1, 2**40, 0]),
                              np.array([2, 2, -3]), np.array([400] * 3), "d")
        assert (rows[:, [0, 1, 2, 5]] == 0).all()
        assert (rows[2] == 0).all()
        assert rows[0, 3] == rows[1, 3] > 0  # the global counts stay


class _Reference:
    """x_st counted from the raw booking lists, one event at a time.

    Shares nothing with the index: every event the query may see is
    tested against each window directly.  An event sits in the window of
    at most one anniversary ``day - 365 k`` (the windows are 31 days
    wide, a year apart), so the same-period count asks each event for
    the nearest ``k`` instead of walking the anniversaries.
    """

    def __init__(self, bookings):
        self.events = [b for events in bookings.values() for b in events]

    def features(self, user_id, city, day, role):
        def place(event):
            return event.origin if role == "o" else event.destination

        def same_period(event):
            k = (day - event.day + 182) // 365  # the nearest
            anniversary = day - 365 * k
            return (k >= 1 and anniversary >= -15
                    and abs(event.day - anniversary) <= 15)

        everyone = [e for e in self.events if place(e) == city]
        mine = [e for e in everyone if e.user_id == user_id]
        visible = [e for e in mine if e.day < day]
        norm = max(len(self.events), 1)
        last_month = [e for e in everyone if day - 30 <= e.day < day]
        return np.array([
            np.log1p(sum(e.user_id == user_id for e in last_month)),
            np.log1p(sum(map(same_period, mine))),
            np.log1p(len(visible)),
            len(last_month) / norm * 100.0,
            sum(map(same_period, everyone)) / norm * 100.0,
            1.0 / (1.0 + (day - max(e.day for e in visible)))
            if visible else 0.0,
        ])


#: days a query may carry: before, inside and far past the event span
DAYS = st.one_of(
    st.integers(-20, 1600),
    st.integers(-10**6, 10**7),
    st.sampled_from([-15, -16, 10**6, 10**9, 10**18, -10**18]),
)


class TestAgreesWithReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), days=st.lists(DAYS, min_size=16,
                                                          max_size=16))
    def test_random_queries(self, seed, days):
        rng = np.random.default_rng(seed)
        bookings = {
            user: [
                _booking(user, int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                         int(day))
                for day in rng.integers(100, 1200, rng.integers(0, 12))
            ]
            for user in range(3)
        }
        extractor = TemporalFeatureExtractor(bookings)
        reference = _Reference(bookings)
        # Before the first event, on event days, between, after the last.
        days = [0, 99, 100, 1199, 1200, 5000, *days]
        users = rng.integers(0, 4, len(days))
        cities = rng.integers(0, 5, len(days))
        for role in "od":
            rows = extractor.x_st(users, cities, np.array(days), role)
            expected = np.stack([
                reference.features(int(u), int(c), day, role)
                for u, c, day in zip(users, cities, days)
            ])
            np.testing.assert_array_equal(rows, expected)
            for i in range(len(days)):
                np.testing.assert_array_equal(
                    extractor.features(int(users[i]), int(cities[i]),
                                       days[i], role),
                    rows[i],
                )


def test_far_day_is_answered_in_time(od_dataset):
    """A query's cost does not grow with its day: a day of 10**18 once
    walked 10**15 anniversaries inside the rank stage."""
    recommender = FlightRecommender(
        build_odnet(od_dataset, TINY_MODEL_CONFIG), od_dataset
    )
    user = od_dataset.source.test_points[0].history.user_id
    start = time.perf_counter()
    response = recommender.recommend(user, day=10**18, k=5)
    assert time.perf_counter() - start < 5.0
    assert not response.degraded and len(response) == 5
