"""The Fliggy behavioural simulator: Table I structure and planted signals."""

import contextlib
import dataclasses
import signal
from collections import Counter

import numpy as np
import pytest

from repro.data import (
    DegenerateWorldError,
    FliggyConfig,
    LbsnConfig,
    ODDataset,
    generate_fliggy_dataset,
    generate_lbsn_dataset,
)
from repro.data.schema import ODPair, SampleKind
from repro.data.synthetic import (
    PopularityDraws,
    _generate_clicks,
    _sample_profile,
)
from repro.data.world import WorldConfig, generate_city_world
from repro.graph import EdgeType


class TestSampleStructure:
    def test_table1_ratio(self, fliggy_dataset):
        """One positive : 4 partial negatives : 2 negatives, per Table I."""
        stats = fliggy_dataset.statistics()
        assert stats["training_partial_neg"] == 4 * stats["training_pos"]
        assert stats["training_neg"] == 2 * stats["training_pos"]
        assert stats["testing_partial_neg"] == 4 * stats["testing_pos"]

    def test_sample_kinds(self, fliggy_dataset):
        kinds = Counter(s.kind for s in fliggy_dataset.train_samples)
        assert set(kinds) == set(SampleKind.ALL)

    def test_negative_city_differs_from_positive(self, fliggy_dataset):
        for point in fliggy_dataset.train_points[:50]:
            samples = [
                s for s in fliggy_dataset.train_samples
                if s.user_id == point.history.user_id and s.day == point.day
            ]
            for s in samples:
                if not s.label_o:
                    assert s.origin != point.target.origin
                if not s.label_d:
                    assert s.destination != point.target.destination

    def test_one_test_point_per_eligible_user(self, fliggy_dataset):
        users = [p.history.user_id for p in fliggy_dataset.test_points]
        assert len(users) == len(set(users))

    def test_train_points_capped_per_user(self, fliggy_dataset):
        counts = Counter(p.history.user_id for p in fliggy_dataset.train_points)
        cap = fliggy_dataset.config.train_points_per_user
        assert max(counts.values()) <= cap


class TestNoLeakage:
    def test_history_strictly_before_decision_day(self, fliggy_dataset):
        for point in fliggy_dataset.train_points + fliggy_dataset.test_points:
            for booking in point.history.bookings:
                assert booking.day < point.day
            for click in point.history.clicks:
                assert click.day < point.day

    def test_train_points_before_test_point(self, fliggy_dataset):
        test_day = {
            p.history.user_id: p.day for p in fliggy_dataset.test_points
        }
        for point in fliggy_dataset.train_points:
            if point.history.user_id in test_day:
                assert point.day < test_day[point.history.user_id]

    def test_hsg_excludes_test_bookings(self, fliggy_dataset):
        graph = fliggy_dataset.build_hsg()
        events = fliggy_dataset.training_od_events()
        assert graph.num_edges(EdgeType.DEPARTURE) == len(events)
        test_day = {
            p.history.user_id: p.day for p in fliggy_dataset.test_points
        }
        total_bookings = sum(
            len(b) for b in fliggy_dataset.bookings_by_user.values()
        )
        # Strictly fewer events than bookings: test bookings excluded.
        assert len(events) < total_bookings
        for user, day in test_day.items():
            visible = [
                b for b in fliggy_dataset.bookings_by_user[user] if b.day < day
            ]
            assert len(visible) < len(fliggy_dataset.bookings_by_user[user])


class TestPlantedStructure:
    """The generator must contain the paper's two challenges."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_fliggy_dataset(
            FliggyConfig(num_users=250, world=WorldConfig(num_cities=40),
                         seed=11)
        )

    def test_origin_exploration_present(self, dataset):
        """A meaningful share of bookings departs from a non-current city."""
        explored = 0
        total = 0
        for point in dataset.test_points:
            total += 1
            if point.target.origin != point.history.current_city:
                explored += 1
        assert explored / total > 0.15

    def test_destination_novelty_present(self, dataset):
        """Many next destinations were never visited before (exploration)."""
        novel = 0
        total = 0
        for point in dataset.test_points:
            total += 1
            if point.target.destination not in set(
                point.history.destination_sequence
            ):
                novel += 1
        assert novel / total > 0.3

    def test_return_trips_present(self, dataset):
        """Reversed-pair bookings (return tickets) occur."""
        returns = 0
        total = 0
        for bookings in dataset.bookings_by_user.values():
            for prev, nxt in zip(bookings, bookings[1:]):
                total += 1
                if (nxt.origin, nxt.destination) == (
                    prev.destination, prev.origin
                ):
                    returns += 1
        assert returns / total > 0.15

    def test_clicks_are_intent_correlated(self, dataset):
        """Clicked destinations share a pattern with the true one more often
        than chance."""
        pattern_hits = 0
        total = 0
        for point in dataset.test_points:
            true_patterns = dataset.world.cities[
                point.target.destination
            ].patterns
            for click in point.history.clicks:
                total += 1
                if dataset.world.cities[click.destination].patterns & true_patterns:
                    pattern_hits += 1
        assert pattern_hits / total > 0.5

    def test_bookings_sorted_by_day(self, dataset):
        for bookings in dataset.bookings_by_user.values():
            days = [b.day for b in bookings]
            assert days == sorted(days)

    def test_prices_match_world(self, dataset):
        for bookings in list(dataset.bookings_by_user.values())[:20]:
            for b in bookings:
                assert b.price == pytest.approx(
                    dataset.world.prices[b.origin, b.destination]
                )

    def test_reproducible(self):
        config = FliggyConfig(num_users=50, world=WorldConfig(num_cities=20),
                              seed=99)
        a = generate_fliggy_dataset(config)
        b = generate_fliggy_dataset(config)
        assert [s for s in a.train_samples[:50]] == [
            s for s in b.train_samples[:50]
        ]


class TestClickDayClamp:
    """Clicks precede their booking by up to click_window_days; for
    bookings in the first week of history the raw offset would land
    before day zero and must clamp to 0."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_city_world(
            WorldConfig(num_cities=20), np.random.default_rng(3)
        )

    def test_early_booking_clicks_clamp_to_zero(self, world):
        config = FliggyConfig(num_users=1, world=WorldConfig(num_cities=20),
                              seed=3)
        rng = np.random.default_rng(3)
        popularity = PopularityDraws(world.popularity)
        profile = _sample_profile(0, world, popularity, config, rng)
        # Day 1 guarantees every raw click day (1 - offset, offset >= 1)
        # is <= 0, so the clamp is exercised on every click.
        clicks = _generate_clicks(
            profile, world, popularity, ODPair(0, 1), day=1, config=config,
            rng=rng,
        )
        assert clicks
        assert all(c.day == 0 for c in clicks)

    def test_all_dataset_click_days_non_negative(self, fliggy_dataset):
        for point in (
            fliggy_dataset.train_points + fliggy_dataset.test_points
        ):
            for click in point.history.clicks:
                assert click.day >= 0


@contextlib.contextmanager
def _deadline(seconds: float):
    """Turn a sampler that spins forever into a failing test."""
    def expire(signum, frame):
        raise TimeoutError(f"still sampling after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDegenerateNegativeSampling:
    """The one negative sampler (``PopularityDraws.negatives``) must
    terminate on worlds where the rejection loop used to spin forever,
    without changing the draws on healthy worlds (pinned datasets), and
    so must every generator that draws negatives through it."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_city_world(
            WorldConfig(num_cities=10), np.random.default_rng(5)
        )

    def test_one_city_world_raises_typed_error(self):
        with pytest.raises(DegenerateWorldError, match="negative city"):
            PopularityDraws(np.ones(1)).negative(0, np.random.default_rng(0))
        # The typed error is still a ValueError for generic handlers.
        assert issubclass(DegenerateWorldError, ValueError)

    def test_all_mass_on_excluded_city_renormalises(self, world):
        popularity = np.zeros(world.num_cities)
        popularity[4] = 1.0
        spiked = PopularityDraws(popularity)
        rng = np.random.default_rng(1)
        drawn = {spiked.negative(4, rng) for _ in range(200)}
        assert 4 not in drawn
        # Uniform over the complement: every other city is reachable.
        assert drawn == set(range(world.num_cities)) - {4}

    def test_healthy_world_draws_unchanged(self, world):
        """The guarded path must consume exactly the draws of the bare
        rejection loop, or every pinned dataset silently changes."""
        exclude = 2
        draws = PopularityDraws(world.popularity)
        for seed in range(5):
            reference_rng = np.random.default_rng(seed)
            while True:
                expected = int(reference_rng.choice(
                    world.num_cities, p=world.popularity
                ))
                if expected != exclude:
                    break
            rng = np.random.default_rng(seed)
            assert draws.negative(exclude, rng) == expected
            # Both consumed the same number of draws.
            assert rng.integers(1 << 30) == reference_rng.integers(1 << 30)

    @pytest.mark.parametrize("hard_negatives", [False, True])
    def test_ranking_tasks_terminate_on_a_spiked_world(self, hard_negatives):
        """Every distractor draw, hard or random, on a world whose whole
        popularity sits on the city most targets touch."""
        source = generate_fliggy_dataset(FliggyConfig(
            num_users=40, world=WorldConfig(num_cities=4), seed=3))
        targets = Counter(
            city for point in source.test_points for city in point.target)
        spike = targets.most_common(1)[0][0]
        popularity = np.zeros(source.num_cities)
        popularity[spike] = 1.0
        spiked = dataclasses.replace(
            source, world=dataclasses.replace(source.world,
                                              popularity=popularity))
        with _deadline(20.0):
            tasks = ODDataset(spiked).ranking_tasks(
                num_candidates=4, hard_negatives=hard_negatives)
        assert len(tasks) == len(source.test_points)
        for task in tasks:
            assert task.candidates[task.true_index] == task.point.target

    def test_lbsn_generation_terminates_on_a_spiked_world(self):
        """``popularity_alpha`` this large overflows every rank but the
        first, leaving all the mass on one POI: every home is that POI,
        and every move away from it and every negative excluding it has no
        popularity to draw by."""
        config = LbsnConfig(num_users=30, num_pois=12,
                            popularity_alpha=2000.0, seed=4)
        with _deadline(20.0), np.errstate(over="ignore"):
            dataset = generate_lbsn_dataset(config)
        (spike,) = np.flatnonzero(dataset.world.popularity)
        assert {p.home_city for p in dataset.profiles} == {spike}
        samples = dataset.train_samples + dataset.test_samples
        positive = {(s.user_id, s.day): s.destination
                    for s in samples if s.label_d}
        assert spike in positive.values()
        for sample in samples:
            if not sample.label_d:
                assert sample.destination != positive[sample.user_id,
                                                      sample.day]


class TestAccessors:
    def test_point_for_lookup(self, fliggy_dataset):
        point = fliggy_dataset.test_points[0]
        assert fliggy_dataset.point_for(
            point.history.user_id, point.day
        ) is point

    def test_num_users_cities(self, fliggy_dataset):
        assert fliggy_dataset.num_users == 120
        assert fliggy_dataset.num_cities == 30
        assert len(fliggy_dataset.cities) == 30
