"""Model introspection: what did ODNET actually learn?

Exposes the internal quantities the paper's case study (Section V-F)
reasons about:

- which long-term bookings the PEC attends to for a given user (Eq. 5);
- how the MMoE gates split the two tasks across experts (Eq. 7);
- which neighbour cities dominate a node's HSGC aggregation (Eq. 1);
- city-embedding neighbourhoods ("which cities ended up similar"), the
  signal behind same-pattern destination exploration.
"""

from __future__ import annotations

import numpy as np

from ..core.odnet import ODNET
from ..data.dataset import ODBatch
from ..tensor import no_grad

__all__ = [
    "pec_history_attention",
    "mmoe_gate_summary",
    "city_embedding_neighbors",
    "hsgc_user_neighbor_attention",
]


def pec_history_attention(
    model: ODNET, batch: ODBatch, side: str = "d"
) -> np.ndarray:
    """Eq. 5 attention over each user's long-term bookings, shape (B, L)."""
    if side not in ("o", "d"):
        raise ValueError(f"side must be 'o' or 'd', got {side!r}")
    hsgc = model.origin_hsgc if side == "o" else model.dest_hsgc
    pec = model.origin_pec if side == "o" else model.dest_pec
    long_ids = batch.long_origins if side == "o" else batch.long_destinations
    short_ids = batch.short_origins if side == "o" else batch.short_destinations
    with model.eval_mode(), no_grad():
        _, cities = hsgc.node_embeddings(users=())
        encoded_long, v_s = pec.encode(
            cities[long_ids], batch.long_mask, cities[short_ids],
            batch.short_mask,
        )
        weights = pec.history_attention.attention_weights(
            v_s, encoded_long, mask=batch.long_mask
        )
    return np.asarray(weights.data)


def mmoe_gate_summary(model: ODNET, batch: ODBatch) -> dict[str, np.ndarray]:
    """Mean expert mixture per task: ``{'origin': (E,), 'destination': (E,)}``."""
    mixtures = model.gate_mixtures(batch)  # (tasks, B, E)
    return {
        "origin": mixtures[0].mean(axis=0),
        "destination": mixtures[1].mean(axis=0),
    }


def city_embedding_neighbors(
    model: ODNET, city_id: int, k: int = 5, side: str = "d"
) -> list[tuple[int, float]]:
    """Nearest cities by cosine similarity of HSGC output embeddings.

    After training, same-pattern cities cluster (the Figure 2(d) effect);
    this is the direct evidence behind destination exploration.
    """
    hsgc = model.origin_hsgc if side == "o" else model.dest_hsgc
    with model.eval_mode(), no_grad():
        _, cities = hsgc.node_embeddings(users=())
    table = np.asarray(cities.data)
    # Centre first: ReLU outputs share a large positive common direction
    # that would saturate raw cosine similarity.
    table = table - table.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(table, axis=1) + 1e-12
    target = table[city_id] / norms[city_id]
    similarity = (table / norms[:, None]) @ target
    similarity[city_id] = -np.inf
    order = np.argsort(-similarity)[:k]
    return [(int(i), float(similarity[i])) for i in order]


def hsgc_user_neighbor_attention(
    model: ODNET, user_id: int, side: str = "o"
) -> list[tuple[int, float]]:
    """Eq. 1 first-step attention of a user over its neighbour cities."""
    hsgc = model.origin_hsgc if side == "o" else model.dest_hsgc
    if hsgc.depth == 0 or hsgc.neighbor_table is None:
        raise ValueError("model has no graph propagation (depth=0)")
    table = hsgc.neighbor_table
    with model.eval_mode(), no_grad():
        user_emb = hsgc.user_embedding.weight.data[user_id]
        city_table = hsgc.city_embedding.weight.data
        neighbors = table.user_neighbors[user_id]
        mask = table.user_mask[user_id]
        logits = np.maximum(city_table[neighbors] @ user_emb, 0.0)
        logits = np.where(mask, logits, -np.inf)
        if not mask.any():
            return []
        shifted = logits - logits[mask].max()
        weights = np.exp(shifted)
        weights[~mask] = 0.0
        weights /= weights.sum()
    return [
        (int(city), float(weight))
        for city, weight, valid in zip(neighbors, weights, mask)
        if valid
    ]
