"""Attention layers: multi-head self-attention (Eq. 3) and the PEC
dot-product attention (Eqs. 4-5)."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, concat, functional as F
from . import init
from .module import Module, Parameter

__all__ = ["MultiHeadAttention", "QueryAttention"]


class MultiHeadAttention(Module):
    """Multi-head self-attention following Vaswani et al. (Eq. 3).

    ``MultiHead(E) = concat(head_1, ..., head_h) W^O`` with
    ``head_i = Attention(E W_i^Q, E W_i^K, E W_i^V)``; head dimension
    ``d_k = d / h`` as in the paper.  Each row attends over its valid
    positions only (:func:`repro.tensor.functional.multi_head_attention`).
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.w_q = Parameter(init.gaussian((dim, dim), rng), name="mha.w_q")
        self.w_k = Parameter(init.gaussian((dim, dim), rng), name="mha.w_k")
        self.w_v = Parameter(init.gaussian((dim, dim), rng), name="mha.w_v")
        self.w_o = Parameter(init.gaussian((dim, dim), rng), name="mha.w_o")

    def stacked(self):
        """The column stack ``[W_q | W_k | W_v]`` the op projects through.
        A live module builds it per call with Tensor ``concat``, so each
        matrix gets its gradient back; a frozen view reads the array it
        captured once (:meth:`on_frozen_view`)."""
        captured = vars(self).get("_captured")
        if captured is not None:
            return captured
        return concat([self.w_q, self.w_k, self.w_v], axis=-1)

    def on_frozen_view(self) -> None:
        vars(self)["_captured"] = self.stacked()

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Self-attention over ``x`` of shape ``(B, L, D)``.

        ``mask`` is ``(B, L)`` with True at valid (non-padded) positions;
        a padded position reads 0.
        """
        return F.multi_head_attention(x, mask, self.stacked(), self.w_o,
                                      self.num_heads)


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
