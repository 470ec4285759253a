"""Attention layers: multi-head self-attention (Eq. 3) and the PEC
dot-product attention (Eqs. 4-5)."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, functional as F
from . import init
from .module import Module, Parameter

__all__ = ["MultiHeadAttention", "QueryAttention"]


class MultiHeadAttention(Module):
    """Multi-head self/cross-attention following Vaswani et al. (Eq. 3).

    ``MultiHead(E) = concat(head_1, ..., head_h) W^O`` with
    ``head_i = Attention(E W_i^Q, E W_i^K, E W_i^V)``; head dimension
    ``d_k = d / h`` as in the paper.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Parameter(init.gaussian((dim, dim), rng), name="mha.w_q")
        self.w_k = Parameter(init.gaussian((dim, dim), rng), name="mha.w_k")
        self.w_v = Parameter(init.gaussian((dim, dim), rng), name="mha.w_v")
        self.w_o = Parameter(init.gaussian((dim, dim), rng), name="mha.w_o")

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        # (B, L, D) -> (B, H, L, d_k)
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        x: Tensor,
        mask: np.ndarray | None = None,
        context: Tensor | None = None,
    ) -> Tensor:
        """Self-attention over ``x`` of shape ``(B, L, D)``.

        ``mask`` is ``(B, L)`` with True at valid (non-padded) positions.
        If ``context`` is given, keys/values come from it (cross-attention).
        """
        batch, length, _ = x.shape
        source = context if context is not None else x
        src_len = source.shape[1]

        q = self._split_heads(x @ self.w_q, batch, length)
        k = self._split_heads(source @ self.w_k, batch, src_len)
        v = self._split_heads(source @ self.w_v, batch, src_len)

        attn_mask = None
        if mask is not None:
            # (B, L_k) -> (B, 1, 1, L_k): queries may attend to valid keys.
            attn_mask = np.asarray(mask, dtype=bool)[:, None, None, :]
        out, _ = F.scaled_dot_product_attention(q, k, v, mask=attn_mask)
        # (B, H, L, d_k) -> (B, L, D)
        out = out.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        return out @ self.w_o


class QueryAttention(Module):
    """The PEC attention layer (Eqs. 4-5).

    Scores long-term encodings against a single query vector:
    ``e*_i = v_sᵀ W* ê_L^i`` then ``v_L = Σ softmax(e*)_i · ê_L^i``.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        # Identity-plus-noise init: the layer starts as plain dot-product
        # attention (informative from step one) and learns a reweighting.
        self.w_star = Parameter(
            np.eye(dim) + init.gaussian((dim, dim), rng),
            name="qattn.w_star",
        )

    def forward(
        self, query: Tensor, keys: Tensor, mask: np.ndarray | None = None
    ) -> Tensor:
        """``query`` is ``(B, D)``, ``keys`` is ``(B, L, D)``; returns ``(B, D)``."""
        weights = self.attention_weights(query, keys, mask)
        return (keys * F.expand_dims(weights, -1)).sum(axis=1)

    def attention_weights(
        self, query: Tensor, keys: Tensor, mask: np.ndarray | None = None
    ) -> Tensor:
        """The Eq. 5 softmax weights (exposed for introspection)."""
        projected = query @ self.w_star  # (B, D)
        scores = (keys * F.expand_dims(projected, 1)).sum(axis=-1)  # (B, L)
        if mask is not None:
            return F.masked_softmax(scores, mask, axis=-1)
        return F.softmax(scores, axis=-1)
