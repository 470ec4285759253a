"""Serving fast path: cached ranking, rank_many, micro-batched platform.

Also pins tie determinism end-to-end: candidates with exactly equal
scores come back in candidate order (stable mergesort argsort), so a
future vectorisation cannot silently reshuffle recommendation lists.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data.schema import ODPair
from repro.perf import MicroBatchConfig
from repro.serving import CandidateRecall, FlightRecommender, RankingService


@pytest.fixture(scope="module")
def recall(od_dataset):
    return CandidateRecall(
        od_dataset.source.world, od_dataset.route_popularity
    )


@pytest.fixture(scope="module")
def points(od_dataset):
    return od_dataset.source.test_points[:6]


class _ConstantScorer:
    """A model that scores every pair identically — all ties."""

    def score_pairs(self, batch):
        return np.zeros(len(batch))


class _BucketScorer:
    """Scores that collide in buckets: many exact ties, several levels."""

    def score_pairs(self, batch):
        return np.asarray(
            [float(o % 3) for o in np.asarray(batch.candidate_origin)]
        )


class TestTieDeterminism:
    def test_all_ties_keep_candidate_order(self, od_dataset, points):
        service = RankingService(_ConstantScorer(), od_dataset)
        point = points[0]
        candidates = [
            ODPair(o, d) for o in range(4) for d in range(4) if o != d
        ]
        ranked = service.rank(
            point.history, candidates, day=point.day, k=len(candidates)
        )
        assert [s.pair for s in ranked] == candidates

    def test_bucketed_ties_stable_within_bucket(self, od_dataset, points):
        service = RankingService(_BucketScorer(), od_dataset)
        point = points[0]
        candidates = [ODPair(o, (o + 1) % 8) for o in range(8)]
        ranked = service.rank(
            point.history, candidates, day=point.day, k=len(candidates)
        )
        # Within each equal-score bucket, candidate order is preserved.
        by_score: dict[float, list[ODPair]] = {}
        for scored in ranked:
            by_score.setdefault(scored.score, []).append(scored.pair)
        for score, pairs in by_score.items():
            expected = [
                pair for pair in candidates if float(pair.origin % 3) == score
            ]
            assert pairs == expected

    def test_rank_twice_identical(self, trained_odnet, od_dataset, recall,
                                  points):
        service = RankingService(trained_odnet, od_dataset)
        point = points[0]
        candidates = recall.candidate_pairs(point.history)
        first = service.rank(point.history, candidates, day=point.day, k=10)
        second = service.rank(point.history, candidates, day=point.day, k=10)
        assert [(s.pair, s.score) for s in first] == [
            (s.pair, s.score) for s in second
        ]


class TestCachedRanking:
    def test_cached_equals_uncached(self, trained_odnet, od_dataset, recall,
                                    points):
        cached = RankingService(trained_odnet, od_dataset, use_cache=True)
        uncached = RankingService(trained_odnet, od_dataset, use_cache=False)
        assert cached.session is not None and uncached.session is None
        for point in points:
            candidates = recall.candidate_pairs(point.history)
            a = cached.rank(point.history, candidates, day=point.day, k=10)
            b = uncached.rank(point.history, candidates, day=point.day, k=10)
            # The uncached service propagates the request's user only:
            # the same ranking, scores equal to 1e-12 rather than bitwise.
            assert [s.pair for s in a] == [s.pair for s in b]
            np.testing.assert_allclose(
                [s.score for s in a], [s.score for s in b],
                rtol=0, atol=1e-12,
            )

    def test_non_hsgc_model_falls_back(self, od_dataset):
        service = RankingService(_ConstantScorer(), od_dataset)
        assert service.session is None  # no embedding_tables protocol


class TestRankMany:
    def test_matches_rank_request_by_request(self, trained_odnet,
                                             od_dataset, recall, points):
        service = RankingService(trained_odnet, od_dataset)
        requests = [
            (p.history, recall.candidate_pairs(p.history), p.day)
            for p in points
        ]
        combined = service.rank_many(requests, k=7)
        assert len(combined) == len(requests)
        for (history, candidates, day), ranked in zip(requests, combined):
            single = service.rank(history, candidates, day=day, k=7)
            # Same ranking; scores equal up to float associativity (BLAS
            # sums in a different order for the combined batch shape).
            assert [s.pair for s in ranked] == [s.pair for s in single]
            np.testing.assert_allclose(
                [s.score for s in ranked],
                [s.score for s in single],
                rtol=1e-9,
            )

    def test_empty_candidate_requests(self, trained_odnet, od_dataset,
                                      recall, points):
        service = RankingService(trained_odnet, od_dataset)
        point = points[0]
        candidates = recall.candidate_pairs(point.history)
        results = service.rank_many(
            [
                (point.history, [], point.day),
                (point.history, candidates, point.day),
                (point.history, [], point.day),
            ],
            k=5,
        )
        assert results[0] == [] and results[2] == []
        assert len(results[1]) == 5

    def test_all_empty(self, trained_odnet, od_dataset, points):
        service = RankingService(trained_odnet, od_dataset)
        point = points[0]
        assert service.rank_many([(point.history, [], point.day)]) == [[]]


class TestPlatformMicroBatch:
    def test_concurrent_recommend_matches_direct(self, trained_odnet,
                                                 od_dataset, points):
        batched = FlightRecommender(
            trained_odnet, od_dataset,
            microbatch=MicroBatchConfig(max_batch=3, max_wait_ms=10.0),
        )
        direct = FlightRecommender(trained_odnet, od_dataset)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(
                    batched.recommend,
                    user_id=p.history.user_id, day=p.day, k=5,
                )
                for p in points
            ]
            via_batcher = [f.result() for f in futures]
        assert batched.batcher.batched_requests == len(points)
        for point, response in zip(points, via_batcher):
            expected = direct.recommend(
                user_id=point.history.user_id, day=point.day, k=5
            )
            assert [f.pair for f in response.flights] == [
                f.pair for f in expected.flights
            ]
            np.testing.assert_allclose(
                [f.score for f in response.flights],
                [f.score for f in expected.flights],
                rtol=1e-9,
            )

    def test_recommend_many_matches_recommend(self, trained_odnet,
                                              od_dataset, points):
        recommender = FlightRecommender(trained_odnet, od_dataset)
        batch = recommender.recommend_many(
            [(p.history.user_id, p.day) for p in points], k=5
        )
        for point, response in zip(points, batch):
            single = recommender.recommend(
                user_id=point.history.user_id, day=point.day, k=5
            )
            assert [f.pair for f in response.flights] == [
                f.pair for f in single.flights
            ]
            np.testing.assert_allclose(
                [f.score for f in response.flights],
                [f.score for f in single.flights],
                rtol=1e-9,
            )

    def test_recommend_many_cold_start(self, trained_odnet, od_dataset):
        recommender = FlightRecommender(trained_odnet, od_dataset)
        response = recommender.recommend_many([(10 ** 9, 720)], k=5)[0]
        assert len(response) > 0
        assert response.degraded
