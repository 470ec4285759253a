"""``rank`` is the model's ``score_pairs`` plus a stable sort.

For any model, ``RankingService.rank`` returns the candidates ordered by
the model's own ``score_pairs`` on the request's batch: scores
descending, equal scores in candidate order, cut at ``k``.  Fast-path
models (ODNET and its variants) are compared against ``score_pairs``
with the model's all-users tables — the tables the serving session
scores from — so the comparison is bitwise.

The matrix covers ODNET and both ablation axes (graph, joint learning)
plus the non-Tensor baselines (GBDT) and the sequential/graph-attention
families, including the empty-candidates and single-candidate edges.
The order itself is then held to a brute-force
``sorted(key=(-score, index))`` on adversarial score vectors: heavy
ties, ``k`` above, at and below the candidate count, and no candidates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import GBDTRanker, LSTMRanker, STPUDGATRanker
from repro.core import build_odnet, build_stl
from repro.data.schema import ODPair
from repro.data.synthetic import DecisionPoint
from repro.perf import supports_fast_path
from repro.serving import CandidateRecall, RankingService

from tests.conftest import TINY_MODEL_CONFIG


def _odnet(dataset):
    return build_odnet(dataset, TINY_MODEL_CONFIG)


def _odnet_no_graph(dataset):
    return build_odnet(dataset, TINY_MODEL_CONFIG, variant="ODNET-G")


def _stl_graph(dataset):
    return build_stl(dataset, TINY_MODEL_CONFIG, variant="STL+G")


def _stl_no_graph(dataset):
    return build_stl(dataset, TINY_MODEL_CONFIG, variant="STL-G")


def _gbdt(dataset):
    model = GBDTRanker(n_trees=4, max_depth=2)
    model.fit(dataset)
    return model


def _lstm(dataset):
    return LSTMRanker(dataset, dim=8)


def _stp_udgat(dataset):
    return STPUDGATRanker(dataset, dim=8)


MODELS = {
    "odnet": _odnet,
    "odnet-no-graph": _odnet_no_graph,
    "stl+g": _stl_graph,
    "stl-g": _stl_no_graph,
    "gbdt": _gbdt,
    "lstm": _lstm,
    "stp-udgat": _stp_udgat,
}


@pytest.fixture(scope="module")
def recall(od_dataset):
    return CandidateRecall(
        od_dataset.source.world, od_dataset.route_popularity
    )


@pytest.fixture(scope="module")
def requests(od_dataset, recall):
    """Full recall sets, then a single candidate, then no candidates."""
    points = od_dataset.source.test_points[:5]
    out = [
        (p.history, recall.candidate_pairs(p.history), p.day)
        for p in points[:3]
    ]
    single = points[3]
    out.append((
        single.history, recall.candidate_pairs(single.history)[:1], single.day
    ))
    empty = points[4]
    out.append((empty.history, [], empty.day))
    return out


def _reference(model, dataset, history, candidates, day, k):
    """``score_pairs`` on the request's batch, then a stable sort."""
    point = DecisionPoint(history=history, target=candidates[0], day=day)
    batch = dataset.batch_for_candidates(point, candidates)
    if supports_fast_path(model):
        scores = model.score_pairs(batch, tables=model.embedding_tables())
    else:
        scores = model.score_pairs(batch)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="mergesort")[:k]
    return [(candidates[i], float(scores[i])) for i in order]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_rank_equals_score_pairs_and_a_stable_sort(name, od_dataset,
                                                    requests):
    model = MODELS[name](od_dataset)
    service = RankingService(model, od_dataset)
    for history, candidates, day in requests[:-1]:
        ranked = service.rank(history, candidates, day=day, k=10)
        assert [(s.pair, s.score) for s in ranked] == _reference(
            model, od_dataset, history, candidates, day, 10
        )


def test_empty_candidates_yield_empty_result(od_dataset, requests):
    service = RankingService(_odnet(od_dataset), od_dataset)
    history, candidates, day = requests[-1]
    assert candidates == []
    assert service.rank(history, candidates, day=day, k=10) == []


def test_single_candidate_round_trips(od_dataset, requests):
    service = RankingService(_odnet(od_dataset), od_dataset)
    history, candidates, day = requests[-2]
    assert len(candidates) == 1
    [result] = service.rank(history, candidates, day=day, k=10)
    assert result.pair == candidates[0]


# ----------------------------------------------------------------------
# The order: stable top-k against a brute-force sort
# ----------------------------------------------------------------------
def _pairs(count):
    return [ODPair(i, i + 1) for i in range(count)]


class TestTopK:
    def test_all_identical_scores_keep_candidate_order(self):
        candidates = _pairs(12)
        ranked = RankingService._top_k(candidates, np.zeros(12), 4)
        assert [s.pair for s in ranked] == candidates[:4]

    def test_boundary_ties_resolved_in_candidate_order(self):
        # Three candidates tie at the k-th score; the earliest two win.
        candidates = _pairs(6)
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.1, 0.95])
        ranked = RankingService._top_k(candidates, scores, 4)
        assert [s.pair for s in ranked] == [
            ODPair(5, 6), ODPair(0, 1), ODPair(1, 2), ODPair(2, 3)
        ]

    def test_k_above_count_returns_everything_ordered(self):
        candidates = _pairs(3)
        ranked = RankingService._top_k(
            candidates, np.array([0.1, 0.9, 0.5]), 10
        )
        assert [s.pair for s in ranked] == [
            ODPair(1, 2), ODPair(2, 3), ODPair(0, 1)
        ]

    def test_k_zero(self):
        assert RankingService._top_k(_pairs(1), np.array([1.0]), 0) == []


class _Scripted:
    """A model that returns the scores it is handed, one per row."""

    scores = np.zeros(0)

    def score_pairs(self, batch):
        assert len(batch) == len(self.scores)
        return self.scores


#: few distinct values, so most draws are heavy with exact ties
_TIED = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0])
_ANY = st.floats(-1e3, 1e3, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    scores=st.lists(st.one_of(_TIED, _ANY), max_size=40),
    k=st.integers(1, 45),
)
@example(scores=[0.5] * 7, k=7)         # k = n, every score tied
@example(scores=[0.5, 1.0, 0.5], k=6)   # k > n
@example(scores=[0.25] * 30, k=1)       # k << n, every score tied
@example(scores=[], k=1)                # no candidates
def test_rank_order_matches_brute_force(od_dataset, scores, k):
    cities = od_dataset.num_cities
    candidates = [
        ODPair(i % cities, (i + 1) % cities) for i in range(len(scores))
    ]
    scorer = _Scripted()
    scorer.scores = np.asarray(scores, dtype=np.float64)
    service = RankingService(scorer, od_dataset)
    point = od_dataset.source.test_points[0]
    ranked = service.rank(point.history, candidates, day=point.day, k=k)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    assert [(s.pair, s.score) for s in ranked] == [
        (candidates[i], scores[i]) for i in order
    ]
