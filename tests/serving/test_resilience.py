"""Fault-tolerant serving: the Figure-9 path under chaos.

Covers the degradation ladder end to end: cold-start users, empty or
failing recall, a failing rank stage behind retry + circuit breaker,
deadline overruns — every request comes back non-empty with honest
``degraded``/``fallbacks`` metadata, and the obs counters agree.
"""

import pytest

from repro.obs import use_registry
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    use_fault_injector,
)
from repro.serving import FlightRecommender, ServingResilienceConfig
from tests.resilience.test_deadline import FakeClock


@pytest.fixture()
def recommender(trained_odnet, od_dataset):
    """A fresh recommender per test (breaker state must not leak)."""
    return FlightRecommender(
        trained_odnet,
        od_dataset,
        resilience=ServingResilienceConfig(
            breaker_window=8, breaker_min_calls=4, breaker_threshold=0.5
        ),
    )


@pytest.fixture()
def known_user(od_dataset):
    return od_dataset.source.test_points[0].history.user_id


class TestColdStart:
    def test_unknown_user_gets_popular_recommendations(self, recommender):
        response = recommender.recommend(user_id=10 ** 9, day=720, k=5)
        assert len(response) > 0
        assert response.degraded
        assert any(
            e.site == "features" and e.reason == "cold_start"
            for e in response.fallbacks
        )
        assert response.user_id == 10 ** 9

    def test_known_user_not_degraded(self, recommender, known_user):
        response = recommender.recommend(user_id=known_user, day=720, k=5)
        assert not response.degraded
        assert response.fallbacks == []


class TestInputValidation:
    def test_k_zero_rejected(self, recommender):
        with pytest.raises(ValueError, match="got 0"):
            recommender.recommend(user_id=1, day=720, k=0)

    def test_k_negative_rejected(self, recommender):
        with pytest.raises(ValueError, match="got -3"):
            recommender.recommend(user_id=1, day=720, k=-3)


class TestRecallDegradation:
    def test_empty_candidates_fall_back_to_popular_routes(
        self, recommender, known_user
    ):
        recommender.recall.candidate_pairs = lambda history: []
        response = recommender.recommend(user_id=known_user, day=720, k=5)
        assert len(response) > 0
        assert response.degraded
        assert any(
            e.site == "recall" and e.reason == "empty"
            for e in response.fallbacks
        )

    def test_recall_error_falls_back_to_popular_routes(
        self, recommender, known_user
    ):
        chaos = FaultInjector(seed=0).add(
            "recall.candidates", FaultSpec(error_rate=1.0)
        )
        with use_fault_injector(chaos):
            response = recommender.recommend(user_id=known_user, day=720, k=5)
        assert len(response) > 0
        assert any(e.site == "recall" for e in response.fallbacks)

    def test_k_larger_than_candidate_count(self, recommender, known_user):
        response = recommender.recommend(user_id=known_user, day=720, k=10000)
        assert 0 < len(response) < 10000
        assert not response.degraded
        scores = [f.score for f in response.flights]
        assert scores == sorted(scores, reverse=True)


class TestRankDegradation:
    def test_total_rank_outage_degrades_and_trips_breaker(
        self, recommender, known_user
    ):
        """The headline acceptance scenario: 100% rank.score failure."""
        chaos = FaultInjector(seed=0).add(
            "rank.score", FaultSpec(error_rate=1.0)
        )
        with use_registry() as registry, use_fault_injector(chaos):
            responses = [
                recommender.recommend(user_id=known_user, day=720, k=5)
                for _ in range(8)
            ]
            calls_when_open = chaos.calls("rank.score")
            # Breaker is open: further requests skip the stage entirely.
            assert recommender.rank_breaker.state == "open"
            late = recommender.recommend(user_id=known_user, day=720, k=5)
            assert chaos.calls("rank.score") == calls_when_open

        for response in responses + [late]:
            assert len(response) > 0
            assert response.degraded
        # Popularity-ordered: scores are route popularity, descending.
        scores = [f.score for f in late.flights]
        assert scores == sorted(scores, reverse=True)
        assert any(e.reason == "breaker_open" for e in late.fallbacks)

        assert registry.counter("resilience.fallbacks").value >= 9
        assert registry.counter("resilience.breaker_open").value == 1
        assert registry.gauge(
            "resilience.breaker_state", labels={"site": "rank"}
        ).value == 2.0
        assert registry.counter("serving.degraded_requests").value == 9

    def test_transient_rank_failure_recovers_via_retry(
        self, recommender, known_user
    ):
        # One injected fault, then healthy: the retry absorbs it.
        chaos = FaultInjector(seed=0).add(
            "rank.score", FaultSpec(error_rate=1.0, max_faults=1)
        )
        with use_registry() as registry, use_fault_injector(chaos):
            response = recommender.recommend(user_id=known_user, day=720, k=5)
        assert not response.degraded
        assert registry.counter(
            "resilience.retries", labels={"site": "rank"}
        ).value == 1


class TestDeadlines:
    def test_expired_deadline_degrades_instead_of_erroring(
        self, recommender, known_user
    ):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.advance_ms(11)
        response = recommender.recommend(
            user_id=known_user, day=720, k=5, deadline=deadline
        )
        assert len(response) > 0
        assert response.degraded
        assert any(
            e.site == "rank" and e.reason == "deadline"
            for e in response.fallbacks
        )

    def test_generous_deadline_stays_clean(self, recommender, known_user):
        response = recommender.recommend(
            user_id=known_user, day=720, k=5, deadline=60_000.0
        )
        assert not response.degraded
