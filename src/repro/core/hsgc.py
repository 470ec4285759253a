"""Heterogeneous Spatial Graph Component — Algorithm 1 with Eqs. 1-2.

HSGC turns user/city ids into *spatial semantic embeddings* by K steps of
neighbourhood aggregation over the HSG.  Each ODNET instance carries two
copies: the origin-aware copy propagates along metapath rho_1 (departure
edges) and the destination-aware copy along rho_2 (arrive edges).

Per step k (Algorithm 1, lines 3-5), every node v_i aggregates its capped
1st-order metapath neighbour cities with attention weights alpha_ij
(Eq. 1): a plain exp(ReLU(dot)) attention when v_i is a user, and the same
attention modulated by inverse-distance spatial weights w_ij (Eq. 2) when
v_i is a city — nearer neighbour cities get larger weights.  The node's
own representation and the aggregated neighbourhood are concatenated and
passed through a ReLU-activated linear layer W^k.

The whole propagation is differentiable and vectorised: neighbourhoods are
dense ``(num_nodes, max_neighbors)`` gathers from
:class:`~repro.graph.NeighborTable`.  It is mini-batched on the user
side, as Algorithm 1 is: callers name the users they read.
"""

from __future__ import annotations

import numpy as np

from ..graph import NeighborTable
from ..nn import Embedding, Linear, Module
from ..tensor import Tensor, concat, functional as F

__all__ = ["HSGComponent"]


class HSGComponent(Module):
    """One metapath-specific copy of the HSGC.

    Parameters
    ----------
    num_users / num_cities:
        Node counts of the HSG.
    dim:
        Embedding dimensionality ``d`` (Algorithm 1's transformed space;
        the transformation matrix ``M_T`` over one-hot ids *is* the
        embedding table).
    neighbor_table:
        Capped metapath neighbourhoods (Section V-A.5: cap 5).
    spatial_weights:
        Eq. 2 inverse-distance weight matrix over cities.
    depth:
        Exploration depth ``K``; ``depth=0`` disables graph propagation and
        degrades the component to plain embedding tables, which is exactly
        the ODNET-G / STL-G ablation of Section V-A.4.
    """

    def __init__(
        self,
        num_users: int,
        num_cities: int,
        dim: int,
        neighbor_table: NeighborTable | None,
        spatial_weights: np.ndarray | None,
        depth: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if depth > 0 and neighbor_table is None:
            raise ValueError("depth > 0 requires a neighbor table")
        self.dim = dim
        self.depth = depth
        self.user_embedding = Embedding(num_users, dim, rng)
        self.city_embedding = Embedding(num_cities, dim, rng)
        self.neighbor_table = neighbor_table
        self.step_layers = [Linear(2 * dim, dim, rng) for _ in range(depth)]
        if spatial_weights is not None and neighbor_table is not None:
            # Pre-gather w_ij for each city's capped neighbourhood.
            self._city_spatial = np.take_along_axis(
                spatial_weights, neighbor_table.city_neighbors, axis=1
            )
        else:
            self._city_spatial = None

    # ------------------------------------------------------------------
    def node_embeddings(self, users=None) -> tuple[Tensor, Tensor]:
        """Run Algorithm 1; returns the (users, cities) embedding tables.

        ``users`` narrows the user side to those ids (any order, repeats
        allowed): a compact ``(len(users), d)`` table aligned with
        ``users``, beside the full city table.  Exact, not sampled: a
        user's update reads its own row and its neighbour *cities*, a
        city's update reads cities only.  ``None`` means every user.
        """
        user_emb = self.user_embedding.weight
        city_emb = self.city_embedding.weight
        rows = slice(None)
        if users is not None:
            rows = np.asarray(users, dtype=np.intp)
            user_emb = user_emb[rows]
        if self.depth == 0:
            return user_emb, city_emb

        table = self.neighbor_table
        user_neighbors = table.user_neighbors[rows]
        user_mask = table.user_mask[rows]
        for layer in self.step_layers:
            # --- users attend over their neighbour cities (Eq. 1, top) ---
            user_nbr = city_emb[user_neighbors]                  # (U, M, d)
            user_logits = F.relu(
                (F.expand_dims(user_emb, 1) * user_nbr).sum(axis=-1)
            )                                                     # (U, M)
            user_alpha = F.masked_softmax(user_logits, user_mask)
            user_agg = (user_nbr * F.expand_dims(user_alpha, -1)).sum(axis=1)

            # --- cities attend with spatial weights (Eq. 1, bottom) -------
            city_nbr = city_emb[table.city_neighbors]            # (C, M, d)
            dots = (F.expand_dims(city_emb, 1) * city_nbr).sum(axis=-1)
            if self._city_spatial is not None:
                dots = dots * self._city_spatial
            city_logits = F.relu(dots)
            city_alpha = F.masked_softmax(city_logits, table.city_mask)
            city_agg = (city_nbr * F.expand_dims(city_alpha, -1)).sum(axis=1)

            # --- line 5: concat + shared fully-connected + ReLU -----------
            user_emb = F.relu(layer(concat([user_emb, user_agg], axis=-1)))
            city_emb = F.relu(layer(concat([city_emb, city_agg], axis=-1)))
        return user_emb, city_emb

    forward = node_embeddings
