"""Preference Extraction Component (Figure 4, Eqs. 3-5).

PEC consumes the HSGC embeddings of a user's long-term booking sequence
``E_L`` and short-term click sequence ``E_S``:

1. each sequence is encoded by multi-head self-attention (Eq. 3);
2. the encoded short-term matrix is average-pooled into ``v_S``;
3. ``v_S`` queries the encoded long-term matrix through a learned
   dot-product attention (Eqs. 4-5), so the extraction of historical
   preference focuses on the user's *latest* booking intent;
4. the result ``v_L`` is concatenated with the HSGC embeddings of the
   user id, current city and candidate city plus the temporal statistics
   ``x_st`` into the tower input ``q^O`` or ``q^D``.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, MultiHeadAttention, QueryAttention
from ..tensor import Tensor, concat, functional as F

__all__ = ["PreferenceExtraction"]


class PreferenceExtraction(Module):
    """One aware-side copy of PEC (ODNET instantiates two).

    Beyond the paper's Figure 4 we add learned positional embeddings to the
    long-term sequence before the multi-head encoder (self-attention is
    otherwise order-blind, and booking recency matters), and the short-term
    representation ``v_S`` is exposed to the tower alongside ``v_L``.
    Both liberties are documented in DESIGN.md.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 max_positions: int = 64):
        super().__init__()
        from ..nn import Parameter, init

        self.dim = dim
        self.long_encoder = MultiHeadAttention(dim, num_heads, rng)
        self.short_encoder = MultiHeadAttention(dim, num_heads, rng)
        self.history_attention = QueryAttention(dim, rng)
        self.positional = Parameter(
            init.gaussian((max_positions, dim), rng), name="pec.positional"
        )

    def forward(
        self,
        long_seq: Tensor,
        long_mask: np.ndarray,
        short_seq: Tensor,
        short_mask: np.ndarray,
    ) -> tuple[Tensor, Tensor]:
        """Return ``(v_L, v_S)``, both of shape (B, d)."""
        length = long_seq.shape[1]
        positioned = long_seq + self.positional[:length]
        encoded_long = self.long_encoder(positioned, mask=long_mask)
        encoded_short = self.short_encoder(short_seq, mask=short_mask)
        v_s = F.masked_mean_pool(encoded_short, short_mask, axis=1)
        v_l = self.history_attention(v_s, encoded_long, mask=long_mask)
        return v_l, v_s

    def build_query(
        self,
        v_l: Tensor,
        v_s: Tensor,
        user_emb: Tensor,
        current_city_emb: Tensor,
        candidate_emb: Tensor,
        xst: np.ndarray,
    ) -> Tensor:
        """Assemble the tower input ``q^X`` (Fig. 4).

        The paper concatenates ``(v_L, e_v, e_lbs, e_c, x_st)``.  We
        additionally expose ``v_S`` and append the elementwise products
        ``v_L ⊙ e_c``, ``v_S ⊙ e_c`` and ``e_v ⊙ e_c``: explicit
        preference-candidate interactions make the affinity linearly
        learnable by the towers, which is necessary at reproduction scale
        (documented in DESIGN.md; the products carry no information beyond
        the paper's inputs).
        """
        return concat(
            [
                v_l,
                v_s,
                user_emb,
                current_city_emb,
                candidate_emb,
                v_l * candidate_emb,
                v_s * candidate_emb,
                user_emb * candidate_emb,
                xst,
            ],
            axis=-1,
        )

    def aware_query(
        self,
        users: Tensor,
        cities: Tensor,
        batch,
        long_ids: np.ndarray,
        short_ids: np.ndarray,
        candidate: np.ndarray,
        xst: np.ndarray,
    ) -> Tensor:
        """One aware side end to end: gathers + :meth:`forward` +
        :meth:`build_query` for an :class:`~repro.data.dataset.ODBatch`.

        Shared by ODNET's branches and the single-task variants so the
        point-deduplication below exists in exactly one place.

        When the batch carries a segment layout (``first_rows`` /
        ``point_rows`` from ``batch_for_requests``), all rows of one
        decision point share the same history sequences, user id and
        current city — only the candidate column differs.  The sequence
        encoders (the expensive multi-head attention) then run once per
        *point* over the ``first_rows`` subset and the results are
        gathered back per row, a ~K× saving for K candidates per request.
        Candidate embeddings and ``xst`` stay per-row.
        """
        first, rows = batch.first_rows, batch.point_rows
        if first is not None and first.shape[0] < rows.shape[0]:
            v_l, v_s = self(
                cities[long_ids[first]], batch.long_mask[first],
                cities[short_ids[first]], batch.short_mask[first],
            )
            v_l = v_l[rows]
            v_s = v_s[rows]
            user_emb = users[batch.user_ids[first]][rows]
            current_emb = cities[batch.current_city[first]][rows]
        else:
            v_l, v_s = self(
                cities[long_ids], batch.long_mask,
                cities[short_ids], batch.short_mask,
            )
            user_emb = users[batch.user_ids]
            current_emb = cities[batch.current_city]
        return self.build_query(
            v_l, v_s, user_emb, current_emb, cities[candidate], xst
        )

    @staticmethod
    def query_dim(dim: int, xst_dim: int) -> int:
        """Dimensionality of :meth:`build_query` output."""
        return 8 * dim + xst_dim
