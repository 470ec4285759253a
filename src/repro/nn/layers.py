"""Core feed-forward layers: Linear, Embedding, MLP, Dropout, LayerNorm."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..tensor import Tensor, functional as F, split
from . import init
from .module import Module, Parameter

__all__ = ["project", "Linear", "Embedding", "MLP", "Dropout", "LayerNorm",
           "Sequential"]


def project(x, weight, bias=None) -> Tensor:
    """``x Wᵀ + b`` for ``weight`` ``(out, in)``.  ``x`` is the input, or
    a list of column blocks ``(x_b, rows_b)`` standing for
    ``concat([x_b[rows_b] ...], -1)`` (``rows_b`` ``None``: every row is
    its own), where ``x_b`` may itself be such a list.
    ``W·concat = Σ_b W_b·x_b``, so each block is projected on its own
    rows by its slice of the weight columns (one
    :func:`~repro.tensor.split` of ``Wᵀ``) and the projections are
    gather-added per output row: columns many rows share are projected
    once."""
    out_features, in_features = weight.shape
    single = not isinstance(x, list)
    blocks = x
    if single:
        flat = x if x.ndim == 2 else x.reshape(-1, in_features)
        blocks = [(flat, None)]
    widths = [_width(part) for part, _ in blocks]
    if sum(widths) != in_features:
        raise ValueError(
            f"blocks are {sum(widths)} columns wide, expected {in_features}"
        )
    out = None
    for (part, rows), piece in zip(blocks, split(weight.transpose(), widths)):
        if isinstance(part, list):
            projected = project(part, piece.transpose())
        else:
            projected = part @ piece
        if out is None and bias is not None:
            projected = projected + bias  # on the block's own rows
        if rows is not None:
            projected = projected[rows]
        if out is None:
            out = projected
        else:
            # In place on an array (``out`` is always one this call made),
            # a new node on a Tensor: the same sum either way.
            out += projected
    if single and x.ndim != 2:
        out = out.reshape(*x.shape[:-1], out_features)
    return out


def _width(part) -> int:
    """Columns of a block's input (nested blocks summed)."""
    if isinstance(part, list):
        return sum(_width(inner) for inner, _ in part)
    return part.shape[-1]


class Linear(Module):
    """Affine transform ``y = x Wᵀ + b`` with the paper's Gaussian init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        sigma: float = init.PAPER_SIGMA,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.gaussian((out_features, in_features), rng, sigma=sigma),
            name="linear.weight",
        )
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") if bias else None

    def forward(self, x) -> Tensor:
        """``x Wᵀ + b`` on ``x`` or its column blocks (see :func:`project`)."""
        return project(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    The paper's Algorithm 1 line 1 — ``e⁰ = M_T · h_v`` for one-hot id
    features ``h_v`` — is exactly an embedding lookup, so the transformation
    matrix ``M_T`` is realised as this table.
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator,
        sigma: float = init.PAPER_SIGMA,
    ):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            init.gaussian((num_embeddings, dim), rng, sigma=sigma),
            name="embedding.weight",
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return self.weight.take(ids, axis=0)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, self.training)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name="layernorm.gamma")
        self.beta = Parameter(np.zeros(dim), name="layernorm.beta")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (variance + self.eps) ** -0.5
        return normed * self.gamma + self.beta


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x


class MLP(Module):
    """Multilayer perceptron with configurable hidden sizes and activation.

    Used for the MMoE experts (Eq. 6) and the task towers of O&D-JLC.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        activation: Callable[[Tensor], Tensor] = F.relu,
        final_activation: Callable[[Tensor], Tensor] | None = None,
    ):
        super().__init__()
        sizes = [in_features, *hidden, out_features]
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)
        ]
        self.activation = activation
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = self.activation(layer(x))
        x = self.layers[-1](x)
        if self.final_activation is not None:
            x = self.final_activation(x)
        return x
