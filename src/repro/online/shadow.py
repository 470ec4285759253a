"""Shadow-gated promotion: a candidate must beat serving before it ships.

An online learner that publishes every snapshot it produces will happily
ship a regression — one burst of skewed events (a bot farm, a feature
pipeline bug) moves the embeddings, and the next hot-swap serves worse
rankings to everyone.  The classic production guard is a *shadow*
evaluation: before a candidate snapshot is promoted, score it and the
currently-serving weights over the same held-out window of **recent**
events, and promote only when the candidate wins by a configurable
margin.

Holdout discipline
------------------
The window is fed by the online loop, which withholds every Nth booking
event from training (:class:`~repro.online.IncrementalTrainer` never
sees it) and hands it here instead.  Each withheld event becomes one
ranking task — the user's point-in-time history against the true next
OD pair plus seeded distractors — so the comparison measures exactly
what serving is asked to do, on traffic the candidate could not have
memorised.  Histories come from the
:class:`~repro.serving.RealTimeFeatureService` *strictly before* the
event's day, so the label never leaks into its own features.

The gate compares MRR over the window: ``promote = candidate_mrr >=
serving_mrr + margin``.  With ``margin=0`` ties promote (fresh weights
win on freshness); a positive margin demands strict improvement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..data.schema import BookingEvent, ODPair
from ..obs.registry import get_registry
from ..data.synthetic import DecisionPoint

__all__ = ["ShadowDecision", "ShadowEvaluator"]


@dataclass(frozen=True)
class ShadowDecision:
    """The gate's verdict on one candidate snapshot."""

    promote: bool
    candidate_mrr: float
    serving_mrr: float
    margin: float
    window: int          # tasks evaluated
    wins: int            # tasks where the candidate ranked the truth higher
    losses: int
    ties: int
    reason: str          # "promoted" / "rejected" / "window"

    @property
    def win_rate(self) -> float:
        contested = self.wins + self.losses
        return self.wins / contested if contested else 0.0


class ShadowEvaluator:
    """Held-out ranking window + the promote/reject decision.

    Parameters
    ----------
    dataset:
        The :class:`~repro.data.ODDataset` used for batching (candidate
        distractors come from its negative sampler, so they have the
        same hard-negative mix the offline evaluation uses).
    features:
        The RTFS the loop is streaming into; supplies point-in-time
        histories for withheld events.
    window:
        Maximum held-out tasks retained (oldest evicted first — the
        window tracks *recent* traffic by construction).
    min_window:
        Tasks required before the gate will decide; below this the
        verdict is ``reason="window"`` and nothing is promoted.
    num_candidates:
        Ranking width per task (truth + ``num_candidates - 1``
        distractors).
    margin:
        Required MRR improvement over serving.
    """

    def __init__(
        self,
        dataset,
        features,
        window: int = 64,
        min_window: int = 8,
        num_candidates: int = 8,
        margin: float = 0.0,
        seed: int = 0,
    ):
        if min_window < 1:
            raise ValueError(f"min_window must be >= 1, got {min_window}")
        if num_candidates < 2:
            raise ValueError(
                f"num_candidates must be >= 2, got {num_candidates}"
            )
        self.dataset = dataset
        self.features = features
        self.window = window
        self.min_window = min_window
        self.num_candidates = num_candidates
        self.margin = margin
        self.observed = 0
        self.skipped = 0
        self._rng = np.random.default_rng(seed)
        self._tasks: deque[tuple[DecisionPoint, list[ODPair]]] = deque(
            maxlen=window
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def ready(self) -> bool:
        return len(self._tasks) >= self.min_window

    def observe(self, event: BookingEvent) -> bool:
        """Turn one withheld booking into a held-out ranking task.

        Returns False (and counts the skip) for users the feature
        service has no history for — a task with an empty history ranks
        nothing meaningful.
        """
        try:
            history = self.features.user_history(event.user_id, event.day)
        except KeyError:
            self.skipped += 1
            return False
        target = ODPair(event.origin, event.destination)
        point = DecisionPoint(history=history, target=target, day=event.day)
        candidates = [target] + self.dataset.sample_distractors(
            target, self.num_candidates - 1, self._rng
        )
        order = self._rng.permutation(len(candidates))
        self._tasks.append((point, [candidates[int(i)] for i in order]))
        self.observed += 1
        return True

    # ------------------------------------------------------------------
    def _ranks(self, model) -> np.ndarray:
        """The truth's rank (1-based) in every window task, one forward."""
        tasks = list(self._tasks)
        batch = self.dataset.batch_for_requests(
            [(point, candidates) for point, candidates in tasks]
        )
        scores = np.asarray(model.score_pairs(batch), dtype=np.float64)
        ranks = np.empty(len(tasks), dtype=np.int64)
        offset = 0
        for i, (point, candidates) in enumerate(tasks):
            block = scores[offset:offset + len(candidates)]
            true_index = candidates.index(point.target)
            ranks[i] = 1 + int((block > block[true_index]).sum())
            offset += len(candidates)
        return ranks

    def mrr(self, model) -> float:
        """Mean reciprocal rank of the truth over the current window."""
        if not self._tasks:
            return 0.0
        return float((1.0 / self._ranks(model)).mean())

    def decide(self, candidate, serving) -> ShadowDecision:
        """Gate ``candidate`` against ``serving`` over the window."""
        registry = get_registry()
        if not self.ready:
            return ShadowDecision(
                promote=False, candidate_mrr=0.0, serving_mrr=0.0,
                margin=self.margin, window=len(self._tasks),
                wins=0, losses=0, ties=0, reason="window",
            )
        candidate_ranks = self._ranks(candidate)
        serving_ranks = self._ranks(serving)
        candidate_mrr = float((1.0 / candidate_ranks).mean())
        serving_mrr = float((1.0 / serving_ranks).mean())
        promote = candidate_mrr >= serving_mrr + self.margin
        decision = ShadowDecision(
            promote=promote,
            candidate_mrr=candidate_mrr,
            serving_mrr=serving_mrr,
            margin=self.margin,
            window=len(self._tasks),
            wins=int((candidate_ranks < serving_ranks).sum()),
            losses=int((candidate_ranks > serving_ranks).sum()),
            ties=int((candidate_ranks == serving_ranks).sum()),
            reason="promoted" if promote else "rejected",
        )
        if registry.enabled:
            registry.counter("online.shadow_evals").inc()
            registry.gauge("online.shadow_candidate_mrr").set(candidate_mrr)
            registry.gauge("online.shadow_serving_mrr").set(serving_mrr)
            registry.counter(
                "online.shadow_promotions" if promote
                else "online.shadow_rejections"
            ).inc()
        return decision
