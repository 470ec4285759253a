"""One request path: ``recommend(u, d)`` and ``recommend_many([(u, d)])[0]``
are the same pipeline, so under every degradation they must agree on the
flights, the ``degraded`` flag, the typed fallback reasons, and every
counter the request moved — and an n-request call emits one span tree.
"""

from __future__ import annotations

import pytest

from repro.guard import GuardConfig, Priority
from repro.obs import use_observability, use_registry
from repro.resilience import FaultInjector, FaultSpec, use_fault_injector
from repro.serving import FlightRecommender, ServingResilienceConfig

UNKNOWN_USER = 10 ** 9
DAY = 720
K = 5


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


#: name -> (user is known, chaos specs, constructor kwargs, arrange, expected
#: fallback reasons in stage order)
SCENARIOS = {
    "healthy": (True, {}, {}, None, []),
    "unknown_user": (False, {}, {}, None, ["features:cold_start"]),
    "features_error": (
        True, _fails("features.history"), {}, None,
        ["features:error:InjectedFault"],
    ),
    "recall_error": (
        True, _fails("recall.candidates"), {}, None,
        ["recall:error:InjectedFault"],
    ),
    "recall_empty": (True, {}, {}, _empty_recall, ["recall:empty"]),
    "rank_retries_exhausted": (
        True, _fails("rank.score"), {}, None, ["rank:error:InjectedFault"],
    ),
    "rank_breaker_open": (
        True, {}, {}, _open_breaker, ["rank:breaker_open"],
    ),
    "deadline_expired": (
        True, {},
        {"resilience": ServingResilienceConfig(deadline_ms=1e-6)}, None,
        ["recall:deadline", "rank:deadline"],
    ),
    "admission_refused": (
        True, {}, {"guard": GuardConfig()}, _drain, ["admission:draining"],
    ),
}


def _serve(entry, model, dataset, user_id, chaos_specs, kwargs, arrange):
    """One request through ``entry`` on a fresh recommender; returns the
    response plus every counter value and histogram count it moved."""
    kwargs.setdefault("resilience", ServingResilienceConfig(
        breaker_window=8, breaker_min_calls=4, breaker_threshold=0.5
    ))
    recommender = FlightRecommender(model, dataset, **kwargs)
    if arrange is not None:
        arrange(recommender)
    chaos = FaultInjector(seed=0)
    for site, spec in chaos_specs.items():
        chaos.add(site, spec)
    with use_registry() as registry, use_fault_injector(chaos):
        if entry == "recommend":
            response = recommender.recommend(
                user_id, DAY, k=K, priority=Priority.BATCH
            )
        else:
            (response,) = recommender.recommend_many(
                [(user_id, DAY)], k=K, priority=Priority.BATCH
            )
    counters = {
        (c.name, tuple(sorted(c.labels.items()))): c.value
        for c in registry.counters
    }
    observations = {
        (h.name, tuple(sorted(h.labels.items()))): h.count
        for h in registry.histograms
    }
    return response, counters, observations


@pytest.mark.parametrize("name", SCENARIOS)
def test_both_entry_points_agree(name, trained_odnet, od_dataset):
    known, chaos_specs, kwargs, arrange, expected = SCENARIOS[name]
    user_id = (
        od_dataset.source.test_points[0].history.user_id
        if known else UNKNOWN_USER
    )
    single, single_counters, single_observed = _serve(
        "recommend", trained_odnet, od_dataset, user_id,
        chaos_specs, dict(kwargs), arrange,
    )
    bulk, bulk_counters, bulk_observed = _serve(
        "recommend_many", trained_odnet, od_dataset, user_id,
        chaos_specs, dict(kwargs), arrange,
    )
    for response in (single, bulk):
        assert [str(event) for event in response.fallbacks] == expected
        assert response.degraded == bool(expected)
        assert 0 < len(response) <= K
    assert bulk.flights == single.flights
    assert bulk_counters == single_counters
    assert bulk_observed == single_observed
    # Every served request is timed; a shed one never is.
    requests = bulk_counters[("serving.requests", ())]
    shed = bulk_counters.get(("serving.shed_requests", ()), 0)
    assert requests == 1
    assert bulk_observed.get(("serving.latency_ms", ()), 0) == requests - shed


def test_bulk_call_emits_one_span_tree(trained_odnet, od_dataset):
    recommender = FlightRecommender(trained_odnet, od_dataset)
    users = [
        point.history.user_id for point in od_dataset.source.test_points[:3]
    ]
    with use_observability() as (registry, tracer):
        responses = recommender.recommend_many(
            [(user_id, DAY) for user_id in users], k=K
        )
    assert [response.user_id for response in responses] == users
    (root,) = tracer.finished("recommend")
    assert root.is_root
    assert root.tags == {"requests": len(users), "k": K}
    for stage, count in (("features", 3), ("recall", 3), ("rank", 1)):
        spans = tracer.finished(stage)
        assert len(spans) == count
        assert all(span.parent_id == root.span_id for span in spans)
    (rank,) = tracer.finished("rank")
    assert tracer.finished("rank.score")[0].parent_id == rank.span_id
    assert rank.tags == {
        "returned": sum(len(response) for response in responses),
        "degraded": False,
    }
    assert registry.counter("serving.requests").value == len(users)
    assert registry.histogram("serving.latency_ms").count == len(users)
