"""Serving fast path: ranking through the cached scoring session.

Also pins tie determinism end-to-end: candidates with exactly equal
scores come back in candidate order (stable mergesort argsort), so a
future vectorisation cannot silently reshuffle recommendation lists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.schema import ODPair
from repro.data.synthetic import DecisionPoint
from repro.serving import CandidateRecall, RankingService


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
        cached = RankingService(trained_odnet, od_dataset)
        assert cached.session is not None
        for point in points:
            candidates = recall.candidate_pairs(point.history)
            ranked = cached.rank(
                point.history, candidates, day=point.day, k=10
            )
            # The uncached model propagates the request's user only: the
            # same ranking, scores equal to 1e-12 rather than bitwise.
            batch = od_dataset.batch_for_candidates(
                DecisionPoint(
                    history=point.history, target=candidates[0],
                    day=point.day,
                ),
                candidates,
            )
            scores = trained_odnet.score_pairs(batch)
            order = np.argsort(-scores, kind="mergesort")[:10]
            assert [s.pair for s in ranked] == [candidates[i] for i in order]
            np.testing.assert_allclose(
                [s.score for s in ranked], scores[order], rtol=0, atol=1e-12,
            )

    def test_non_hsgc_model_falls_back(self, od_dataset):
        service = RankingService(_ConstantScorer(), od_dataset)
        assert service.session is None  # no embedding_tables protocol
