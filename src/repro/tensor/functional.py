"""Composite differentiable functions built on :mod:`repro.tensor.core`.

These helpers implement the numerical building blocks that the ODNET paper
uses repeatedly: multi-head self-attention (Eq. 3), masked softmax over
padded neighbourhoods (Eq. 1), and the binary cross-entropy losses of
Eqs. 9-10.

Every op an ``nn`` layer is built from takes a Tensor or a plain array
and answers in kind: a Tensor goes through the method that records the
tape, anything else through the same array formula with no tape.  That
is how a frozen module (:func:`repro.core.fused.frozen_view`) serves
with the ``forward`` it was trained with.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Tensor, masked_softmax_array, multi_head_attention_array, sigmoid_array,
    softmax_array,
)
from .core import multi_head_attention as multi_head_attention_node

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "masked_softmax",
    "expand_dims",
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "multi_head_attention",
    "dropout",
    "mean_pool",
    "masked_mean_pool",
]


def relu(x: Tensor) -> Tensor:
    return x.relu() if isinstance(x, Tensor) else x * (x > 0)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid() if isinstance(x, Tensor) else sigmoid_array(x)


def tanh(x: Tensor) -> Tensor:
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if isinstance(x, Tensor):
        return x.softmax(axis=axis)
    return softmax_array(x, axis)


def expand_dims(x: Tensor, axis: int) -> Tensor:
    if isinstance(x, Tensor):
        return x.expand_dims(axis)
    return np.expand_dims(x, axis)


def masked_softmax(scores: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over ``axis`` ignoring positions where ``mask`` is False.

    Fully-masked rows produce all-zero attention weights instead of NaNs,
    which is the behaviour needed for nodes with no metapath neighbours.
    """
    mask = np.asarray(mask, dtype=bool)
    if isinstance(scores, Tensor):
        return scores.masked_softmax(mask, axis=axis)
    return masked_softmax_array(scores, mask, axis)


def binary_cross_entropy(
    probabilities: Tensor, targets: np.ndarray, eps: float = 1e-12
) -> Tensor:
    """Mean binary cross-entropy on probabilities (Eqs. 9-10 of the paper)."""
    p = probabilities.clip(eps, 1.0 - eps)
    t = np.asarray(targets, dtype=np.float64)
    losses = -(t * p.log() + (1.0 - t) * (1.0 - p).log())
    return losses.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE computed directly from logits."""
    t = np.asarray(targets, dtype=np.float64)
    # log(1 + exp(-|x|)) + max(x, 0) - x * t
    relu_logits = logits.relu()
    abs_logits = logits.abs()
    softplus = (1.0 + (-abs_logits).exp()).log()
    losses = relu_logits - logits * t + softplus
    return losses.mean()


def multi_head_attention(x: Tensor, mask: np.ndarray | None, w_qkv: Tensor,
                         w_o: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention (Eq. 3) over each row's valid positions:
    ``concat(head_1, ..., head_h) W_o`` with ``head_i = softmax(Q_i
    K_iᵀ/√d_k) V_i`` and ``[Q | K | V] = x [W_q | W_k | W_v]``.

    ``x`` is ``(B, L, D)``; ``mask`` is ``(B, L)`` with True at valid
    positions (``None``: all valid).  A padded position reads 0.  One
    node on Tensors (:func:`repro.tensor.core.multi_head_attention`),
    the same formula on arrays."""
    if any(isinstance(v, Tensor) for v in (x, w_qkv, w_o)):
        return multi_head_attention_node(x, mask, w_qkv, w_o, heads)
    return multi_head_attention_array(x, mask, w_qkv, w_o, heads)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: identity in eval mode or when rate is zero."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * mask


def mean_pool(x: Tensor, axis: int = 1) -> Tensor:
    """Average pooling along ``axis`` (PEC short-term pooling, Fig. 4)."""
    return x.mean(axis=axis)


def masked_mean_pool(x: Tensor, mask: np.ndarray, axis: int = 1) -> Tensor:
    """Average pooling that ignores padded positions.

    ``mask`` is True at valid positions and has the shape of ``x`` without
    the trailing feature dimension.
    """
    mask = np.asarray(mask, dtype=np.float64)
    expanded = np.expand_dims(mask, -1)
    total = (x * expanded).sum(axis=axis)
    counts = np.maximum(expanded.sum(axis=axis), 1.0)
    return total * (1.0 / counts)
