"""Output verification: is what the program answered actually right?

The serving path scores through the fused numpy kernel and a segment-wise
top-k; the reference here goes the other way round — the Tensor autograd
modules (``ODNET.predict``, Eqs. 3-11) plus a plain stable sort — so a
serving speed-up bought by diverging from the model is caught.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.synthetic import DecisionPoint

__all__ = [
    "SCORE_TOLERANCE",
    "reference_top_k",
    "same_ranking",
    "check_recommender",
    "check_gateway_replies",
    "check_training",
]

SCORE_TOLERANCE = 1e-9


def reference_top_k(recommender, user_id: int, day: int, k: int):
    """Top-``k`` ``(origin, destination, score)`` by the Tensor path.

    Features and recall are the recommender's own (they define *what* is
    ranked); scoring is ``ODNET.predict`` blended by Eq. 11, and the
    order is a stable descending sort (ties keep candidate order).
    """
    history = recommender.features.user_history(user_id, day)
    candidates = recommender.recall.candidate_pairs(history)
    point = DecisionPoint(history=history, target=candidates[0], day=day)
    batch = recommender.dataset.batch_for_candidates(point, candidates)
    model = recommender.ranking.model
    p_o, p_d = model.predict(batch)
    theta = model.theta
    scores = theta * p_o + (1.0 - theta) * p_d
    order = np.argsort(-scores, kind="mergesort")[:k]
    return [
        (candidates[i].origin, candidates[i].destination, float(scores[i]))
        for i in order
    ]


def same_ranking(got, expected) -> bool:
    """Same pairs in the same order, scores within the tolerance."""
    return len(got) == len(expected) and all(
        g[0] == e[0] and g[1] == e[1]
        and math.isclose(g[2], e[2], rel_tol=0.0, abs_tol=SCORE_TOLERANCE)
        for g, e in zip(got, expected)
    )


def _served(response):
    return [
        (flight.pair.origin, flight.pair.destination, flight.score)
        for flight in response.flights
    ]


def check_recommender(recommender, requests, k: int) -> list[str]:
    """``recommend`` against the reference; returns the mismatches."""
    problems = []
    for user_id, day in requests:
        response = recommender.recommend(user_id, day, k=k)
        if response.degraded:
            problems.append(f"({user_id}, {day}): degraded "
                            f"{[str(e) for e in response.fallbacks]}")
        elif not same_ranking(
            _served(response), reference_top_k(recommender, user_id, day, k)
        ):
            problems.append(f"({user_id}, {day}): top-{k} differs from "
                            "the Tensor-path reference")
    return problems


def check_gateway_replies(send, recommender, requests, k: int) -> list[str]:
    """Each reply ``send(request)`` fetches through the gateway equals
    the in-process ``recommend`` for the same request (replicas are
    deterministic in the seed)."""
    problems = []
    for user_id, day in requests:
        reply = send((user_id, day))
        got = [
            (f["origin"], f["destination"], f["score"])
            for f in reply["flights"]
        ]
        expected = _served(recommender.recommend(user_id, day, k=k))
        if reply["degraded"] or not same_ranking(got, expected):
            problems.append(f"({user_id}, {day}): gateway reply differs "
                            "from in-process recommend")
    return problems


def check_training(epoch_losses) -> list[str]:
    """Loss finite everywhere and lower at the last epoch than the first."""
    if not all(math.isfinite(loss) for loss in epoch_losses):
        return [f"non-finite epoch loss in {epoch_losses}"]
    if len(epoch_losses) < 2 or not epoch_losses[-1] < epoch_losses[0]:
        return [f"loss did not fall: {epoch_losses}"]
    return []
