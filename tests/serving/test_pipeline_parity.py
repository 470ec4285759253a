"""The degradation ladder, rung by rung.

Under every degradation ``recommend`` must answer with the flights its
rung names (which history, which candidates, which ranker), the typed
fallback reasons in stage order, and exactly the counters and histograms
the rung lists — nothing more, nothing less.
"""

from __future__ import annotations

import pytest

from repro.data.schema import BookingEvent
from repro.guard import GuardConfig, Priority
from repro.obs import use_registry
from repro.resilience import FaultInjector, FaultSpec, use_fault_injector
from repro.serving import FlightRecommender, ServingResilienceConfig

DAY = 720
K = 5
#: stands for the rung's candidate count in an expected counter value
N = "candidates"


def _known(dataset):
    return dataset.source.test_points[0].history.user_id


def _unknown(dataset):
    return 10 ** 9


def _beyond_table(dataset):
    return dataset.num_users + 5


def _fails(site):
    return {site: FaultSpec(error_rate=1.0)}


def _empty_recall(recommender):
    recommender.recall.candidate_pairs = lambda history: []


def _open_breaker(recommender):
    for _ in range(4):
        recommender.rank_breaker.record_failure()
    assert recommender.rank_breaker.state == "open"


def _drain(recommender):
    assert recommender.drain(timeout_s=1.0)


def _stream_in_beyond_table(recommender):
    recommender.features.record_booking(BookingEvent(
        user_id=_beyond_table(recommender.dataset), origin=0,
        destination=1, day=DAY - 10, price=100.0,
    ))


def _counter(name, value, **labels):
    return {(name, tuple(sorted(labels.items()))): value}


def _chaos(site, calls):
    return _counter("chaos.injected_errors", calls, site=site)


RECALLED = {
    **_counter("recall.calls", 1), **_counter("recall.pairs", N),
    **_counter("recall.pairs_per_call", 1),
}
SCORED = {
    **_counter("perf.cache_misses", 1), **_counter("ranking.scored_pairs", N),
}

#: name -> (user, chaos specs, constructor kwargs, arrange, fallback
#: reasons in stage order, flights as (history, candidates, ranker), the
#: stages' counters and histograms)
SCENARIOS = {
    "healthy": (
        _known, {}, {}, None, [],
        ("user", "recall", "model"), {**RECALLED, **SCORED},
    ),
    "unknown_user": (
        _unknown, {}, {}, None, ["features:cold_start"],
        ("cold", "recall", "model"), {**RECALLED, **SCORED},
    ),
    "out_of_table": (
        _beyond_table, {}, {}, _stream_in_beyond_table,
        ["features:out_of_table"],
        ("cold", "recall", "model"), {**RECALLED, **SCORED},
    ),
    "features_error": (
        _known, _fails("features.history"), {}, None,
        ["features:error:InjectedFault"],
        ("cold", "recall", "model"),
        {**RECALLED, **SCORED, **_chaos("features.history", 1)},
    ),
    "recall_error": (
        _known, _fails("recall.candidates"), {}, None,
        ["recall:error:InjectedFault"],
        ("user", "popular", "model"),
        {**SCORED, **_chaos("recall.candidates", 1)},
    ),
    "recall_empty": (
        _known, {}, {}, _empty_recall, ["recall:empty"],
        ("user", "popular", "model"), SCORED,
    ),
    "rank_retries_exhausted": (
        _known, _fails("rank.score"), {}, None, ["rank:error:InjectedFault"],
        ("user", "recall", "popularity"),
        {**RECALLED, **_chaos("rank.score", 2),
         **_counter("resilience.retries", 2, site="rank")},
    ),
    "rank_breaker_open": (
        _known, {}, {}, _open_breaker, ["rank:breaker_open"],
        ("user", "recall", "popularity"), RECALLED,
    ),
    "deadline_expired": (
        _known, {},
        {"resilience": ServingResilienceConfig(deadline_ms=1e-6)}, None,
        ["recall:deadline", "rank:deadline"],
        ("user", "popular", "popularity"), {},
    ),
    "admission_refused": (
        _known, {}, {"guard": GuardConfig()}, _drain, ["admission:draining"],
        ("user", "popular", "popularity"),
        {**_counter("guard.shed", 1),
         **_counter("guard.shed", 1, priority="batch", reason="draining",
                    site="serving.admission")},
    ),
}


def _expected_flights(model, dataset, user_id, how):
    """What the rung's (history, candidates, ranker) serve, computed on
    a fresh recommender with nothing injected."""
    history_from, candidates_from, ranker = how
    recommender = FlightRecommender(model, dataset)
    if history_from == "user":
        history = recommender.features.user_history(user_id, DAY)
    else:
        history = recommender.cold_start_history(user_id)
    if candidates_from == "recall":
        candidates = recommender.recall.candidate_pairs(history)
    else:
        candidates = recommender.recall.popular_pairs()
    if ranker == "model":
        flights = recommender.ranking.rank(history, candidates, DAY, k=K)
    else:
        flights = recommender.popularity_rank(candidates, K)
    return flights, len(candidates)


def _expected_counters(reasons, stages, candidates):
    """The rung's stage counters plus what every request moves: one
    ``serving.requests``, its fallback events, and — unless it was shed
    at admission — its candidates and one latency observation."""
    expected = {
        key: candidates if value == N else value
        for key, value in stages.items()
    }
    expected.update(_counter("serving.requests", 1))
    if reasons:
        expected.update(_counter("serving.degraded_requests", 1))
        expected.update(_counter("resilience.fallbacks", len(reasons)))
        for reason in reasons:
            site, _, cause = reason.partition(":")
            expected.update(
                _counter("resilience.fallbacks", 1, site=site, reason=cause)
            )
    if reasons[:1] == ["admission:draining"]:
        expected.update(_counter("serving.shed_requests", 1))
    else:
        expected.update(_counter("serving.candidates", candidates))
        expected.update(_counter("serving.latency_ms", 1))
    return expected


@pytest.mark.parametrize("name", SCENARIOS)
def test_recommend_serves_the_rung(name, trained_odnet, od_dataset):
    user, chaos_specs, kwargs, arrange, reasons, how, stages = SCENARIOS[name]
    user_id = user(od_dataset)
    kwargs = dict(kwargs)
    kwargs.setdefault("resilience", ServingResilienceConfig(
        breaker_window=8, breaker_min_calls=4, breaker_threshold=0.5
    ))
    recommender = FlightRecommender(trained_odnet, od_dataset, **kwargs)
    if arrange is not None:
        arrange(recommender)
    chaos = FaultInjector(seed=0)
    for site, spec in chaos_specs.items():
        chaos.add(site, spec)
    with use_registry() as registry, use_fault_injector(chaos):
        response = recommender.recommend(
            user_id, DAY, k=K, priority=Priority.BATCH
        )
    moved = {
        (c.name, tuple(sorted(c.labels.items()))): c.value
        for c in registry.counters
    }
    moved.update(
        ((h.name, tuple(sorted(h.labels.items()))), h.count)
        for h in registry.histograms
    )

    assert [str(event) for event in response.fallbacks] == reasons
    assert response.degraded == bool(reasons)
    flights, candidates = _expected_flights(
        trained_odnet, od_dataset, user_id, how
    )
    assert 0 < len(response) <= K
    assert response.flights == flights
    assert moved == _expected_counters(reasons, stages, candidates)
