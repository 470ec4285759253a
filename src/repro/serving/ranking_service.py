"""Ranking Service System (RSS) — Section VI.

RSS holds the trained model and "computes the scores (or probabilities) of
every candidate OD pair"; the top-k pairs become the recommendation list.

Serving fast path: models exposing the frozen-table protocol (ODNET and
its subclasses) are scored through a
:class:`~repro.perf.InferenceSession`, which caches the HSGC
node-embedding tables across requests and invalidates them when the
weights move (see :mod:`repro.perf.session` for the contract).  Each
batch is scored from one immutable frozen state the session publishes by
reference, so a hot swap under traffic is never seen half-applied.  Pass
``use_cache=False`` to force the naive re-propagating path (the
benchmark baseline).

One rank stage: :meth:`RankingService.rank_many` encodes, scores and
cuts any number of requests in one forward, and
:meth:`RankingService.rank` is ``rank_many`` of one request.

Tie determinism: candidates with exactly equal scores are returned in
candidate order.  Selection is one vectorized segment-wise top-k
(:meth:`RankingService._segment_top_k`): a row-wise
``np.partition`` finds each segment's k-th score, strictly-greater
scores are taken outright, boundary ties are resolved in candidate
order by a cumulative count, and one stable ``np.lexsort`` orders every
selected entry by (segment, score descending, candidate index) — the
exact order the historical stable-mergesort ``_top_k`` produced, with
no per-candidate Python and no possibility of a candidate leaking
across segment boundaries.  Regression tests pin both properties.
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

    def __init__(self, model, dataset: ODDataset, use_cache: bool = True):
        self.model = model
        self.dataset = dataset
        self.session: InferenceSession | None = None
        if use_cache and supports_fast_path(model):
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
        # Kept as the single-segment reference implementation; the serving
        # path goes through _segment_top_k.
        order = np.argsort(-scores, kind="mergesort")[:k]
        return [
            ScoredPair(pair=candidates[int(i)], score=float(scores[int(i)]))
            for i in order
        ]

    @staticmethod
    def _segment_top_k(
        segments: list[list[ODPair]],
        scores: np.ndarray,
        counts: np.ndarray,
        k: int,
    ) -> list[list[ScoredPair]]:
        """Vectorized per-segment top-k over a flat score vector.

        ``scores`` concatenates the per-segment candidate scores in
        segment order; ``counts[r]`` is segment ``r``'s candidate count.
        Selection and ordering match the stable-mergesort ``_top_k``
        exactly: scores descending, equal scores in candidate order.

        Mechanics: segments are scattered into a ``(R, Kmax)`` matrix
        padded with ``-inf``; a row-wise ``np.partition`` yields each
        row's k-th largest score (the boundary); entries strictly above
        the boundary are taken, and boundary ties are admitted lowest
        candidate index first via a cumulative tie count.  One global
        ``np.lexsort`` over (row, -score, candidate index) then lays the
        selected entries out in emission order.
        """
        counts = np.asarray(counts, dtype=np.int64)
        num_segments = counts.shape[0]
        if num_segments == 0 or scores.shape[0] == 0 or k <= 0:
            return [[] for _ in range(num_segments)]
        k_max = int(counts.max())
        kk = min(k, k_max)
        rows = np.repeat(np.arange(num_segments), counts)
        offsets = np.zeros(num_segments, dtype=np.int64)
        offsets[1:] = np.cumsum(counts)[:-1]
        cols = np.arange(scores.shape[0]) - offsets[rows]
        matrix = np.full((num_segments, k_max), -np.inf)
        matrix[rows, cols] = scores
        valid = np.zeros((num_segments, k_max), dtype=bool)
        valid[rows, cols] = True

        negated = -matrix
        boundary = np.partition(negated, kk - 1, axis=1)[:, kk - 1]
        greater = (negated < boundary[:, None]) & valid
        tied = (negated == boundary[:, None]) & valid
        need = kk - greater.sum(axis=1)
        take_tied = tied & (np.cumsum(tied, axis=1) <= need[:, None])
        selected = greater | take_tied

        sel_rows, sel_cols = np.nonzero(selected)
        sel_scores = matrix[sel_rows, sel_cols]
        order = np.lexsort((sel_cols, -sel_scores, sel_rows))
        sel_rows = sel_rows[order]
        sel_cols = sel_cols[order]
        sel_scores = sel_scores[order]
        bounds = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(selected.sum(axis=1), out=bounds[1:])

        results: list[list[ScoredPair]] = []
        col_list = sel_cols.tolist()
        score_list = sel_scores.tolist()
        for r, segment in enumerate(segments):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            results.append([
                ScoredPair(pair=segment[c], score=float(s))
                for c, s in zip(col_list[lo:hi], score_list[lo:hi])
            ])
        return results

    def rank(
        self,
        history: UserHistory,
        candidates: list[ODPair],
        day: int,
        k: int = 10,
    ) -> list[ScoredPair]:
        """Return the top-``k`` candidates by model score, descending.

        :meth:`rank_many` of one request — the same batch shape, so the
        scores are bit-identical.
        """
        return self.rank_many([(history, candidates, day)], k=k)[0]

    def rank_many(
        self,
        requests: list[tuple[UserHistory, list[ODPair], int]],
        k: int = 10,
    ) -> list[list[ScoredPair]]:
        """Rank several ``(history, candidates, day)`` requests in ONE
        model forward — the micro-batched scoring path.

        The one implementation of the rank stage (:meth:`rank` is this
        with one request).  Results are per-request: same encoding, same
        stable top-k.  A request's scores may differ between batches of
        different sizes in the last float bits (BLAS picks different
        summation orders for different batch shapes); ties are still
        broken by candidate order.
        """
        if not requests:
            return []
        tracer = get_tracer()
        encoded = []
        active: list[int] = []
        segments: list[list[ODPair]] = []
        for index, (history, candidates, day) in enumerate(requests):
            if candidates:
                # Target is unknown at serving time; labels in the batch
                # are ignored by score_pairs.
                point = DecisionPoint(
                    history=history, target=candidates[0], day=day
                )
                encoded.append((point, candidates))
                active.append(index)
                segments.append(candidates)
        with tracer.span("rank.batch"):
            batch = (
                self.dataset.batch_for_requests(encoded) if encoded else None
            )
        with tracer.span("rank.score"):
            get_fault_injector().inject("rank.score")
            scores = self._score(batch) if batch is not None else None
        results: list[list[ScoredPair]] = [[] for _ in requests]
        if scores is not None:
            counts = np.fromiter(
                (len(segment) for segment in segments),
                np.int64,
                len(segments),
            )
            ranked = self._segment_top_k(segments, scores, counts, k)
            for index, top in zip(active, ranked):
                results[index] = top
        registry = get_registry()
        registry.counter("ranking.scored_pairs").inc(
            sum(len(candidates) for _, candidates, _ in requests)
        )
        return results
