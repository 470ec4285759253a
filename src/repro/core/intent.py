"""Travel-intent extension (the paper's stated future work).

Section VII: "In future, we will consider to take travel intentions of
users into account, to further improve the quality of flight
recommendation."  This module implements that extension:

:class:`IntentAwareODNET` adds a latent travel-intent head — a small MLP
over the destination-aware query that emits a softmax over ``num_intents``
latent intents (think vacation / business / family-visit / return-home).
The intent distribution is appended to the MMoE joint query, so the task
gates can route O/D prediction through different experts per intent.
Intents are *unsupervised*: they are shaped end-to-end by the ranking
losses, with two light regularisers —

- a per-sample confidence term (low entropy: each trip should have a
  clear intent), and
- a batch diversity term (high marginal entropy: the model should not
  collapse onto one intent).
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import ODBatch, ODDataset, PAIR_DIM
from ..nn import MLP
from ..tensor import Tensor, functional as F, no_grad
from .mmoe import MMoEJointLearning
from .odnet import ODNET, ODNETConfig
from .pec import PreferenceExtraction

__all__ = ["IntentAwareODNET"]

_EPS = 1e-9


class IntentAwareODNET(ODNET):
    """ODNET + latent travel-intent routing."""

    name = "ODNET-Intent"

    def __init__(
        self,
        dataset: ODDataset,
        config: ODNETConfig | None = None,
        num_intents: int = 4,
        confidence_weight: float = 0.05,
        diversity_weight: float = 0.05,
    ):
        super().__init__(dataset, config)
        if num_intents < 2:
            raise ValueError(f"need at least 2 intents, got {num_intents}")
        self.num_intents = num_intents
        self.confidence_weight = confidence_weight
        self.diversity_weight = diversity_weight
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 101)
        query_dim = PreferenceExtraction.query_dim(cfg.dim, dataset.xst_dim)
        self.intent_head = MLP(
            query_dim, [cfg.tower_hidden], num_intents, rng
        )
        # Rebuild the joint head with the intent-extended input.
        self.joint = MMoEJointLearning(
            input_dim=2 * query_dim + PAIR_DIM + num_intents,
            expert_dim=cfg.expert_dim,
            tower_hidden=cfg.tower_hidden,
            rng=np.random.default_rng(cfg.seed + 202),
            num_experts=cfg.num_experts,
        )

    # ------------------------------------------------------------------
    def _joint_query(self, batch: ODBatch, tables=None) -> list:
        blocks = super()._joint_query(batch, tables=tables)
        q_d, rows = blocks[1]
        # The intent reads q^D alone: one more block on its distinct rows.
        self._intent = (F.softmax(self.intent_head(q_d), axis=-1), rows)
        return blocks + [self._intent]

    def loss(self, batch: ODBatch) -> Tensor:
        joint = super().loss(batch)
        intent, rows = self._intent
        if rows is not None:
            intent = intent[rows]
        # Per-sample entropy (want low -> confident intents).
        per_sample = -(intent * (intent + _EPS).log()).sum(axis=-1).mean()
        # Batch marginal entropy (want high -> diverse intents).
        marginal = intent.mean(axis=0)
        batch_entropy = -(marginal * (marginal + _EPS).log()).sum()
        return (
            joint
            + self.confidence_weight * per_sample
            - self.diversity_weight * batch_entropy
        )

    # ------------------------------------------------------------------
    def intent_distribution(self, batch: ODBatch) -> np.ndarray:
        """Per-sample latent intent probabilities ``(B, num_intents)``."""
        with self.eval_mode(), no_grad():
            self._joint_query(batch)
            intent, rows = self._intent
        return intent.data if rows is None else intent.data[rows]

    def dominant_intent(self, batch: ODBatch) -> np.ndarray:
        """Arg-max latent intent id per sample."""
        return self.intent_distribution(batch).argmax(axis=-1)
