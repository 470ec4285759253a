"""RankingService, FlightRecommender facade, and the A/B simulator."""

import numpy as np
import pytest

from repro.data import ODDataset
from repro.data.schema import BookingEvent, ODPair, UserHistory
from repro.serving import (
    ABTestConfig,
    ABTestSimulator,
    FlightRecommender,
    RankingService,
)


@pytest.fixture(scope="module")
def recommender(trained_odnet, od_dataset):
    return FlightRecommender(trained_odnet, od_dataset)


class TestRankingService:
    def test_empty_candidates(self, trained_odnet, od_dataset):
        service = RankingService(trained_odnet, od_dataset)
        point = od_dataset.source.test_points[0]
        assert service.rank(point.history, [], day=point.day) == []

    def test_scores_descending_and_k_respected(self, trained_odnet, od_dataset):
        service = RankingService(trained_odnet, od_dataset)
        point = od_dataset.source.test_points[0]
        n = od_dataset.num_cities
        candidates = [
            ODPair(i % n, (i + 3) % n) for i in range(12)
        ]
        candidates = [p for p in candidates if p.origin != p.destination]
        ranked = service.rank(point.history, candidates, day=point.day, k=5)
        assert len(ranked) == 5
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)


class TestFlightRecommender:
    def test_bench_world_replies_are_ranked_by_the_model(self):
        """A fault in batch assembly or the kernel does not raise: it
        surfaces as a fast, popularity-ranked ``rank:error:*`` reply.  On
        the benchmark's own world (fewer users), none may be one."""
        from bench.streams import request_stream
        from bench.world import TOP_K, Scale, build_recommender

        recommender = build_recommender(0, Scale(users=300))
        points = recommender.dataset.source.test_points
        for user_id, day in request_stream(points, 0, "undegraded", 16):
            response = recommender.recommend(user_id, day, k=TOP_K)
            assert not response.degraded, [str(e) for e in response.fallbacks]
            assert not response.fallbacks and len(response) == TOP_K

    def test_end_to_end_response(self, recommender, od_dataset):
        user = od_dataset.source.test_points[0].history.user_id
        response = recommender.recommend(user_id=user, day=720, k=5)
        assert len(response) <= 5
        assert response.user_id == user
        for flight in response.flights:
            assert flight.pair.origin != flight.pair.destination
        assert len(set(response.pairs)) == len(response.pairs)

    def test_unknown_user_degrades_to_cold_start(self, recommender):
        """A user with no behavioural data no longer raises KeyError —
        they get a degraded, popularity-anchored recommendation."""
        response = recommender.recommend(user_id=10**9, day=720)
        assert len(response) > 0
        assert response.degraded
        assert [str(e) for e in response.fallbacks] == ["features:cold_start"]

    def test_unknown_user_scores_the_empty_profile(self, trained_odnet,
                                                   fliggy_dataset):
        """The stranger borrows its bucket user's id-keyed rows, never that
        user's history, even when the bucket holds a pinned point on the
        requested day."""
        dataset = ODDataset(fliggy_dataset, max_long=10, max_short=6)
        recommender = FlightRecommender(trained_odnet, dataset)
        point = next(p for p in fliggy_dataset.test_points
                     if p.history.bookings)
        bucket, day = point.history.user_id, point.day
        stranger = bucket + dataset.num_users
        response = recommender.recommend(user_id=stranger, day=day, k=10)
        assert [str(e) for e in response.fallbacks] == ["features:cold_start"]

        empty = UserHistory(
            user_id=bucket,
            current_city=recommender.recall.most_popular_origin(),
            revision=10**6,   # a key no point in the store holds
        )
        candidates = recommender.recall.candidate_pairs(empty)
        expected = recommender.ranking.rank(empty, candidates, day=day, k=10)
        assert [(f.pair, f.score) for f in response.flights] == [
            (f.pair, f.score) for f in expected
        ]

    def test_ranked_quality_beats_reversed(self, recommender, trained_odnet,
                                           od_dataset):
        """The top recommendation must score at least the bottom one."""
        user = od_dataset.source.test_points[1].history.user_id
        response = recommender.recommend(user_id=user, day=720, k=10)
        if len(response) >= 2:
            assert response.flights[0].score >= response.flights[-1].score


class TestOutOfTableIds:
    """An id the embedding tables have no row for is served the empty
    profile even when RTFS holds bookings streamed in for it — it is
    never scored on its raw id (an ``IndexError`` that trips the shared
    rank breaker, or numpy's negative indexing into another user's row)."""

    DAY = 720

    def _streamed_in(self, model, dataset, user_id):
        recommender = FlightRecommender(model, dataset)
        recommender.features.record_booking(BookingEvent(
            user_id=user_id, origin=0, destination=1, day=self.DAY - 10,
            price=100.0,
        ))
        return recommender

    def test_an_id_past_the_table_keeps_the_breaker_closed(
        self, trained_odnet, od_dataset
    ):
        stranger = od_dataset.num_users + 5
        recommender = self._streamed_in(trained_odnet, od_dataset, stranger)
        for _ in range(7):
            response = recommender.recommend(stranger, self.DAY, k=5)
            assert [str(e) for e in response.fallbacks] == [
                "features:out_of_table"
            ]
            assert len(response) == 5
        known = od_dataset.source.test_points[0].history.user_id
        response = recommender.recommend(known, self.DAY, k=5)
        assert not response.degraded, [str(e) for e in response.fallbacks]
        assert recommender.rank_breaker.state == "closed"

    def test_a_negative_id_scores_the_empty_profile(
        self, trained_odnet, od_dataset
    ):
        recommender = self._streamed_in(trained_odnet, od_dataset, -1)
        response = recommender.recommend(-1, self.DAY, k=10)
        assert response.degraded
        assert [str(e) for e in response.fallbacks] == [
            "features:out_of_table"
        ]
        empty = UserHistory(
            user_id=od_dataset.num_users - 1,
            current_city=recommender.recall.most_popular_origin(),
            revision=10**6,   # a key no point in the store holds
        )
        candidates = recommender.recall.candidate_pairs(empty)
        expected = recommender.ranking.rank(
            empty, candidates, day=self.DAY, k=10
        )
        assert [(f.pair, f.score) for f in response.flights] == [
            (f.pair, f.score) for f in expected
        ]


class TestABTest:
    def test_result_structure(self, trained_odnet, od_dataset):
        from repro.baselines import MostPop

        mostpop = MostPop()
        mostpop.fit(od_dataset)
        config = ABTestConfig(days=3, users_per_day_per_method=5, seed=0)
        simulator = ABTestSimulator(od_dataset, config)
        tasks = od_dataset.ranking_tasks(num_candidates=15, max_tasks=40)
        result = simulator.run(
            {"ODNET": trained_odnet, "MostPop": mostpop}, tasks
        )
        assert result.methods == ["ODNET", "MostPop"]
        for method in result.methods:
            assert result.impressions[method].shape == (3,)
            daily = result.daily_ctr(method)
            assert np.all((daily >= 0) & (daily <= 1))
            assert 0 <= result.mean_ctr(method) <= 1

    def test_impressions_bounded_by_config(self, trained_odnet, od_dataset):
        config = ABTestConfig(days=2, users_per_day_per_method=4, top_k=6,
                              seed=0)
        simulator = ABTestSimulator(od_dataset, config)
        tasks = od_dataset.ranking_tasks(num_candidates=10, max_tasks=20)
        result = simulator.run({"ODNET": trained_odnet}, tasks)
        impressions = result.impressions["ODNET"]
        # Cascade: at least one impression per user, at most top_k each.
        assert np.all(impressions >= 4)
        assert np.all(impressions <= 4 * 6)

    def test_improvement_metric(self, trained_odnet, od_dataset):
        from repro.baselines import MostPop

        mostpop = MostPop()
        mostpop.fit(od_dataset)
        config = ABTestConfig(days=6, users_per_day_per_method=30, seed=2)
        tasks = od_dataset.ranking_tasks(
            num_candidates=20, rng=np.random.default_rng(2), max_tasks=110
        )
        result = ABTestSimulator(od_dataset, config).run(
            {"ODNET": trained_odnet, "MostPop": mostpop}, tasks
        )
        # A trained ODNET must hold a CTR edge over raw popularity.
        assert result.improvement("ODNET", "MostPop") > 0

    def test_relevance_anchored_to_truth(self, od_dataset, trained_odnet):
        simulator = ABTestSimulator(od_dataset, ABTestConfig())
        task = od_dataset.ranking_tasks(num_candidates=10, max_tasks=1)[0]
        exact = simulator._relevance(task, task.point.target)
        other = ODPair(
            task.point.target.origin,
            (task.point.target.destination + 1) % od_dataset.num_cities,
        )
        assert exact > simulator._relevance(task, other)
