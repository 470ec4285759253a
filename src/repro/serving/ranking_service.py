"""Ranking Service System (RSS) — Section VI.

RSS holds the trained model and "computes the scores (or probabilities) of
every candidate OD pair"; the top-k pairs become the recommendation list.

Serving fast path: models exposing the frozen-table protocol (ODNET and
its subclasses) are scored through a
:class:`~repro.perf.InferenceSession`, which caches the HSGC
node-embedding tables across requests and invalidates them when the
weights move (see :mod:`repro.perf.session` for the contract).  Each
request is scored from one immutable frozen state the session publishes
by reference, so a hot swap under traffic is never seen half-applied.
Models without the protocol (the baselines) score through their own
``score_pairs``.

Tie determinism: candidates with exactly equal scores are returned in
candidate order — top-k is a stable sort on the negated scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import ODDataset
from ..data.schema import ODPair, UserHistory
from ..data.synthetic import DecisionPoint
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..perf.session import InferenceSession, supports_fast_path
from ..resilience.chaos import get_fault_injector

__all__ = ["ScoredPair", "RankingService"]


@dataclass(frozen=True)
class ScoredPair:
    """One ranked flight recommendation."""

    pair: ODPair
    score: float


class RankingService:
    """Scores candidate OD pairs with a fitted ranker (Eq. 11 for ODNET)."""

    def __init__(self, model, dataset: ODDataset):
        self.model = model
        self.dataset = dataset
        self.session: InferenceSession | None = None
        if supports_fast_path(model):
            self.session = InferenceSession(model)

    def _score(self, batch) -> np.ndarray:
        if self.session is not None:
            scores = self.session.score_pairs(batch)
        else:
            scores = self.model.score_pairs(batch)
        return np.asarray(scores, dtype=np.float64)

    @staticmethod
    def _top_k(
        candidates: list[ODPair], scores: np.ndarray, k: int
    ) -> list[ScoredPair]:
        # Stable sort: equal scores keep candidate order (tie determinism).
        order = np.argsort(-scores, kind="mergesort")[:k].tolist()
        return [
            ScoredPair(pair=candidates[i], score=float(scores[i]))
            for i in order
        ]

    def rank(
        self,
        history: UserHistory,
        candidates: list[ODPair],
        day: int,
        k: int = 10,
    ) -> list[ScoredPair]:
        """Return the top-``k`` candidates by model score, descending."""
        tracer = get_tracer()
        batch = None
        with tracer.span("rank.batch"):
            if candidates:
                # Target is unknown at serving time; labels in the batch
                # are ignored by score_pairs.
                point = DecisionPoint(
                    history=history, target=candidates[0], day=day
                )
                batch = self.dataset.batch_for_candidates(point, candidates)
        with tracer.span("rank.score"):
            get_fault_injector().inject("rank.score")
            scores = self._score(batch) if batch is not None else None
        ranked = [] if scores is None else self._top_k(candidates, scores, k)
        get_registry().counter("ranking.scored_pairs").inc(len(candidates))
        return ranked
