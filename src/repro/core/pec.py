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


def _pick(values, index):
    """``values[index]``; ``None`` selects every row (and gathers nothing)."""
    return values if index is None else values[index]


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
        encoded_long, v_s = self.encode(long_seq, long_mask, short_seq,
                                        short_mask)
        v_l = self.history_attention(v_s, encoded_long, mask=long_mask)
        return v_l, v_s

    def encode(
        self,
        long_seq: Tensor,
        long_mask: np.ndarray,
        short_seq: Tensor,
        short_mask: np.ndarray,
    ) -> tuple[Tensor, Tensor]:
        """Eq. 3 on both sequences and the short-term pool: the encoded
        long-term matrix ``(B, L, d)`` and ``v_S`` ``(B, d)``, what the
        Eqs. 4-5 attention of :meth:`forward` reads."""
        length = long_seq.shape[1]
        positioned = long_seq + self.positional[:length]
        encoded_long = self.long_encoder(positioned, mask=long_mask)
        encoded_short = self.short_encoder(short_seq, mask=short_mask)
        v_s = F.masked_mean_pool(encoded_short, short_mask, axis=1)
        return encoded_long, v_s

    def _remembered(self, memo, batch, sequences) -> tuple:
        """:meth:`forward` per point through one side's :class:`~repro.core.
        fused.PointMemo`: a row remembered under the batch's stamp is read
        back, the rest run in one call and are kept (stamp 0: not kept)."""
        rows, stamps = (keys.tolist() for keys in batch.point_keys)
        found = [memo.get(row) for row in rows]
        missed = [at for at, (entry, stamp) in enumerate(zip(found, stamps))
                  if entry is None or entry[0] != stamp]
        memo.hits += len(found) - len(missed)
        memo.misses += len(missed)
        if missed:
            both = np.stack(self(*sequences(batch.first_rows[missed])), 1)
            for i, at in enumerate(missed):
                found[at] = stamps[at], both[i]
                if stamps[at]:
                    memo[rows[at]] = found[at]
        both = np.stack([entry[1] for entry in found])
        return both[:, 0], both[:, 1]

    # The tower input q^X (Fig. 4) is point_columns then candidate_columns.
    # The paper concatenates (v_L, e_v, e_lbs, e_c, x_st).  We additionally
    # expose v_S and append the elementwise products v_L ⊙ e_c, v_S ⊙ e_c
    # and e_v ⊙ e_c: explicit preference-candidate interactions make the
    # affinity linearly learnable by the towers, which is necessary at
    # reproduction scale (documented in DESIGN.md; the products carry no
    # information beyond the paper's inputs).
    @staticmethod
    def point_columns(v_l, v_s, user_emb, current_city_emb) -> Tensor:
        """The first ``4·d`` columns of ``q^X``: ``(v_L, v_S, e_v,
        e_lbs)``, which every candidate of one decision point shares."""
        return concat([v_l, v_s, user_emb, current_city_emb], axis=-1)

    @staticmethod
    def candidate_columns(v_l, v_s, user_emb, candidate_emb, xst) -> Tensor:
        """The rest of ``q^X``: ``e_c``, its three products and ``x_st``,
        which read the candidate city."""
        return concat(
            [
                candidate_emb,
                v_l * candidate_emb,
                v_s * candidate_emb,
                user_emb * candidate_emb,
                xst,
            ],
            axis=-1,
        )

    def query_blocks(
        self,
        users: Tensor,
        cities: Tensor,
        batch,
        long_ids: np.ndarray,
        short_ids: np.ndarray,
        candidate: np.ndarray,
        xst: np.ndarray,
        layout: tuple[np.ndarray, np.ndarray] | None = None,
        memo=None,
    ) -> list:
        """One aware side end to end: gathers + :meth:`forward` + ``q^X``
        for an :class:`~repro.data.dataset.ODBatch`, as the column blocks
        ``[(point, of_point), (rest, None)]`` of :func:`repro.nn.project`
        — :meth:`point_columns` once per decision point and the row map to
        them, :meth:`candidate_columns` once per side row.

        Shared by ODNET's branches and the single-task variants so the
        deduplication below exists in exactly one place.

        When the batch carries a segment layout (``first_rows`` /
        ``point_rows`` from ``batch_for_requests``), all rows of one
        decision point share the same history sequences, so the sequence
        encoders (the expensive multi-head attention) run once per
        *point* over the ``first_rows`` subset, and so do the point
        columns.  With the side's ``layout`` (``batch.side_layout[side]``)
        the side rows are the distinct (point, candidate city) rows
        ``layout[0]`` only — ``q[layout[1]]`` is the per-row query;
        without it, every row.  With a ``memo`` a point its state encoded
        before skips the encoders too.
        """
        first, of_point = batch.first_rows, batch.point_rows
        keep = None if layout is None else layout[0]
        if keep is not None:  # the point of each distinct side row
            of_point = keep if first is None else of_point[keep]

        def sequences(at):
            return (cities[_pick(long_ids, at)], _pick(batch.long_mask, at),
                    cities[_pick(short_ids, at)], _pick(batch.short_mask, at))

        v_l, v_s = (self(*sequences(first)) if memo is None
                    else self._remembered(memo, batch, sequences))
        user = users[_pick(batch.user_ids, first)]
        point = self.point_columns(
            v_l, v_s, user, cities[_pick(batch.current_city, first)]
        )
        rest = self.candidate_columns(
            _pick(v_l, of_point), _pick(v_s, of_point), _pick(user, of_point),
            cities[_pick(candidate, keep)], _pick(xst, keep),
        )
        return [(point, of_point), (rest, None)]

    def aware_query(self, *args, **kwargs) -> Tensor:
        """:meth:`query_blocks` (same arguments) as one ``q^X`` matrix,
        one row per side row."""
        (point, of_point), (rest, _) = self.query_blocks(*args, **kwargs)
        return concat([_pick(point, of_point), rest], axis=-1)

    def aware_block(self, users: Tensor, cities: Tensor, batch, side: str):
        """q^O (``side='o'``) or q^D (``'d'``) of a batch as a column block
        ``(q, rows)`` for :func:`repro.nn.project`: ``q`` its
        :meth:`query_blocks` on the side's distinct rows, ``rows`` their
        row map (``None``: every row)."""
        *inputs, layout = batch.side(side)
        memo = None if batch.point_memo is None else batch.point_memo[side]
        q = self.query_blocks(users, cities, batch, *inputs, layout, memo)
        return q, None if layout is None else layout[1]

    @staticmethod
    def query_dim(dim: int, xst_dim: int) -> int:
        """Width of ``q^X``: both column groups."""
        return 8 * dim + xst_dim
