"""Composite differentiable functions built on :mod:`repro.tensor.core`.

These helpers implement the numerical building blocks that the ODNET paper
uses repeatedly: scaled dot-product attention (Eq. 3), masked softmax over
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

from .core import Tensor, masked_softmax_array, sigmoid_array, softmax_array

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "masked_softmax",
    "expand_dims",
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "scaled_dot_product_attention",
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


def scaled_dot_product_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V) = softmax(QKᵀ/√d)·V  (Vaswani et al., used in Eq. 3).

    Shapes: query ``(..., Lq, d)``, key/value ``(..., Lk, d)``.
    ``mask`` has shape broadcastable to ``(..., Lq, Lk)`` with True at valid
    key positions.  Returns ``(output, attention_weights)``.
    """
    d = query.shape[-1]
    scores = (query @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
    if mask is not None:
        weights = masked_softmax(scores, mask, axis=-1)
    else:
        weights = softmax(scores, axis=-1)
    return weights @ value, weights


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
